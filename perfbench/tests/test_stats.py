import run
from workloads import UnitResult


def test_p95_needs_200_samples_to_leave_ten_above_it():
    assert run.tail_count(199, 0.95) == 9
    assert run.tail_count(200, 0.95) == 10
    assert run.min_samples(0.95) == 200


def test_quantile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.quantile(values, 0.5) == 100
    assert run.quantile(values, 0.95) == 190
    assert sum(v > run.quantile(values, 0.95) for v in values) == 10


def test_measure_keeps_going_until_the_tail_is_filled():
    calls = []

    def unit(k):
        calls.append(k)
        return UnitResult(wall_s=0.0, latencies_ms=[1.0] * 30)

    units = run.measure(unit, seconds=1e-9, min_latencies=run.min_samples(0.95))
    assert len(units) == 7  # 7 * 30 = 210 >= 200; 6 * 30 = 180 is not enough
    assert calls == list(range(7))


def test_summary_reports_sample_count_and_tail():
    units = [UnitResult(wall_s=1.0, latencies_ms=[float(i) for i in range(100)],
                        attempted=100) for _ in range(2)]
    d = run.summarize(units)
    assert d["infer_samples"] == 200
    assert d["infer_samples_above_p95"] == 10
    assert d["failed_ratio"] == 0.0
