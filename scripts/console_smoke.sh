#!/usr/bin/env bash
# Console smoke: runs the weyldisc command the way a user does, the
# README's command examples included, and checks exit codes, messages and
# artifact bytes.  Every artifact and scenario file lands in a fresh
# temporary directory, removed on exit; every report must be strict JSON
# (ex4.2a's residual magnitude is inf).
#
# Usage: scripts/console_smoke.sh
#   WEYLDISC  the command to run (default: weyldisc), for example
#             WEYLDISC="python -m weyldisc.cli" with src on PYTHONPATH
set -euo pipefail

WEYLDISC=${WEYLDISC:-weyldisc}
weyldisc() {
  # `command` skips this function, so the default runs the console script
  command $WEYLDISC "$@"
}

root=$(mktemp -d)
trap 'rm -rf "$root"' EXIT
scenarios="$root/scenarios"
mkdir "$scenarios" "$root/smoke"
cd "$root/smoke"

weyldisc examples
weyldisc check free --bits 53
weyldisc check free --bits 256
# the check windows count from the grid origin a
echo '{"name": "free-a10", "a": 10, "p": "1"}' > "$scenarios/free-a10.json"
weyldisc check "$scenarios/free-a10.json"
# an --n-max override gets the scenario file's checks: exit 2
status=0
weyldisc criteria free --n-max -5 || status=$?
test "$status" -eq 2
# non-finite numbers and scenario values of the wrong JSON type
# are refused with exit 2 too
status=0
weyldisc classify free --lambda-im inf || status=$?
test "$status" -eq 2
status=0
weyldisc ivp free --c1 nan --c2 0 --N 3 || status=$?
test "$status" -eq 2
echo '{"name": "a-true", "a": true, "p": "1"}' > "$scenarios/a-true.json"
status=0
weyldisc check "$scenarios/a-true.json" || status=$?
test "$status" -eq 2
# so are unknown keys inside lambda, precision and thresholds, and
# a native power whose exponent overflowed is an evaluation error;
# neither prints a traceback
echo '{"name": "typo", "thresholds": {"rel_tl": 1e-3}}' > "$scenarios/typo.json"
status=0
weyldisc classify "$scenarios/typo.json" 2> typo.err || status=$?
test "$status" -eq 2
grep -q "thresholds.rel_tl" typo.err
if grep -q Traceback typo.err; then exit 1; fi
echo '{"name": "negpow", "q": "(0 - 1)^(4^t * 4^t)", "n_max": 300, "precision": {"mode": "native-float"}}' > "$scenarios/negpow.json"
status=0
weyldisc classify "$scenarios/negpow.json" 2> negpow.err || status=$?
test "$status" -eq 2
grep -q "evaluation error" negpow.err
grep -q "t=256" negpow.err
if grep -q Traceback negpow.err; then exit 1; fi
rm typo.err negpow.err
# thresholds that decide nothing, or decide wrongly, are refused before
# anything is written: rel_tol 2 would call the free model LCC
echo '{"name": "t1", "p": "1", "thresholds": {"rel_tol": 2, "divergence_factor": 1e300}}' > "$scenarios/t1.json"
status=0
weyldisc classify "$scenarios/t1.json" 2> t1.err || status=$?
test "$status" -eq 2
grep -q "rel_tol" t1.err
test ! -e t1_report.json
rm t1.err
# a native-float run prints the kernel it used
echo '{"name": "free-native", "n_max": 60, "precision": {"mode": "native-float"}}' > "$scenarios/free-native.json"
weyldisc classify "$scenarios/free-native.json" > native.out
grep -q "backend: native" native.out
rm native.out
# every formatter call site on machine floats; the strict-JSON loop
# below reads these reports too
weyldisc ivp "$scenarios/free-native.json" --c1 1 --c2 0 --N 5
weyldisc disc "$scenarios/free-native.json" --N 3
weyldisc eigen "$scenarios/free-native.json" --lambda-re 1 --lambda-im 0 --N 3
# an artifact that cannot be written is one error line and exit 1
mkdir -p blocked/free_report.json
status=0
weyldisc classify free --n-max 40 --out blocked 2> blocked.err || status=$?
test "$status" -eq 1
test "$(grep -c '^error: ' blocked.err)" -eq 1
if grep -q Traceback blocked.err; then exit 1; fi
rm -r blocked blocked.err
weyldisc criteria ex4.2a --M 1
# sqrt(v) > 0 exactly when v > 0: a sqrt-wrapped p that vanishes
# at t = 250 fails p_positive, and the ratio criterion's
# p_nonvanishing, whether the scan reaches 250 or not
echo '{"name": "sqrt-p", "p": "sqrt((t - 250)^2)"}' > "$scenarios/sqrt-p.json"
for n_max in 200 300; do
  weyldisc criteria "$scenarios/sqrt-p.json" --M 1 --n-max "$n_max" > sqrt-p.out
  grep -q "weighted criterion (M = 1): fails \[p_positive\]" sqrt-p.out
  grep -q "ratio criterion .*: fails \[p_nonvanishing\]" sqrt-p.out
done
rm sqrt-p.out
# a nonzero alpha steps the three-datum variation-of-parameters basis
weyldisc check free --alpha 0.7
weyldisc ivp free --c1 1 --c2 0 --N 5 --lambda-re 1 --lambda-im 0
weyldisc disc free --N 0
weyldisc eigen free --lambda-re 1 --lambda-im 0 --N 0
weyldisc eigen ex4.2a --lambda-re 0.5 --lambda-im 0 --N 40
# long windows at the other pinned precisions: ex4.2a's chi takes
# the backward route, ex4.2b's the forward one
for bits in 53 512; do
  weyldisc classify ex4.2a --n-max 800 --bits "$bits" --out "bits$bits" > route.out
  grep -q "chi route: backward" route.out
  weyldisc classify ex4.2b --n-max 800 --bits "$bits" --out "bits$bits" > route.out
  grep -q "chi route: forward" route.out
  rm route.out
done
# a literal 0 or 1 coefficient's products are left out on big floats;
# with the zeros spelled 0*t and the ones 1+0*t every product is
# formed, and neither the disc CSVs nor the check output may change
# (free: c = h = d = q = 0 with p = 1, ex4.1a: c = h = 0 with d = 1,
# ex4.1b: c = 0 with d = 1, ex4.2a: c = h = 0 with p = 1 on the
# backward chi route, ex4.2b: h = 0 with p = 1); ex4.2a's check exits
# 1 on its known FAIL lines with either spelling
echo '{"name": "free", "p": "1+0*t", "q": "0*t", "c": "0*t", "h": "0*t", "d": "0*t"}' > "$scenarios/free-spelled.json"
echo '{"name": "ex4.1a", "p": "-(4^t)", "q": "4^t", "c": "0*t", "h": "0*t", "d": "1+0*t"}' > "$scenarios/ex4.1a-spelled.json"
echo '{"name": "ex4.1b", "p": "-(4^t)", "q": "4^t", "c": "0*t", "h": "2^t + 2^(-t)", "d": "1+0*t"}' > "$scenarios/ex4.1b-spelled.json"
echo '{"name": "ex4.2a", "p": "1+0*t", "q": "4^t", "c": "0*t", "h": "0*t", "d": "4^t"}' > "$scenarios/ex4.2a-spelled.json"
echo '{"name": "ex4.2b", "p": "1+0*t", "q": "4^t", "c": "sqrt(4^(2*t) + 4^t)", "h": "0*t", "d": "4^t"}' > "$scenarios/ex4.2b-spelled.json"
for bits in 256 53 512; do
  for name in free ex4.1a ex4.1b ex4.2a ex4.2b; do
    weyldisc classify "$name" --n-max 200 --bits "$bits" --out "zeros$bits" > /dev/null
    weyldisc classify "$scenarios/$name-spelled.json" --n-max 200 --bits "$bits" \
      --out "spelled$bits" > /dev/null
    cmp "zeros$bits/${name}_discs.csv" "spelled$bits/${name}_discs.csv"
    expected=0
    if [ "$name" = ex4.2a ]; then expected=1; fi
    status=0
    weyldisc check "$name" --bits "$bits" > zeros.out || status=$?
    test "$status" -eq "$expected"
    status=0
    weyldisc check "$scenarios/$name-spelled.json" --bits "$bits" > spelled.out || status=$?
    test "$status" -eq "$expected"
    cmp zeros.out spelled.out
  done
done
rm -r zeros256 zeros53 zeros512 spelled256 spelled53 spelled512 zeros.out spelled.out
# a rerun into the same --out replaces each artifact with the
# same bytes
weyldisc classify ex4.2a --n-max 800 --out rerun > /dev/null
mkdir first
cp rerun/ex4.2a_report.json rerun/ex4.2a_discs.csv first/
weyldisc classify ex4.2a --n-max 800 --out rerun > /dev/null
cmp first/ex4.2a_report.json rerun/ex4.2a_report.json
cmp first/ex4.2a_discs.csv rerun/ex4.2a_discs.csv
for report in *.json bits*/*.json; do
  python -c 'import json, sys; json.load(open(sys.argv[1]), parse_constant=lambda name: sys.exit(f"{sys.argv[1]}: {name} is not strict JSON"))' "$report"
done
