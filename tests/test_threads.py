"""Runs at different precisions may execute concurrently.

Each big-float kernel rounds at its own precision, held by its private
mpmath context rather than the global one, so a classification gives
the same answer in a thread beside runs at another precision as it
gives alone.
"""

import dataclasses
import threading

from weyldisc import PrecisionConfig, builtin_scenario, classify

BITS = (64, 256)
THREADS_PER_BITS = 3


def _run(bits):
    scenario = dataclasses.replace(
        builtin_scenario("ex4.1b"), n_max=200,
        precision=PrecisionConfig(mantissa_bits=bits))
    report = classify(scenario.model(), scenario.lam, scenario.alpha,
                      scenario.classify_options())
    return (report.verdict, report.chi_method, report.m_limit,
            report.disc_samples[-1].radius)


def test_concurrent_runs_at_two_precisions_match_sequential_runs():
    sequential = {bits: _run(bits) for bits in BITS}
    start = threading.Barrier(len(BITS) * THREADS_PER_BITS)
    results = []

    def worker(bits):
        start.wait()
        results.append((bits, _run(bits)))

    threads = [threading.Thread(target=worker, args=(bits,))
               for bits in BITS for _ in range(THREADS_PER_BITS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == len(threads)
    for bits, got in results:
        assert got == sequential[bits], bits
