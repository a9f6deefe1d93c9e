"""The ordered thread pool, and the Monte Carlo word volumes that run on it.

The worker count W of the word volumes comes from hmt.limits.mc_threads;
patching it forces W.  No result may depend on W, a failure must stop every
worker, and the pool must start W tasks, not one per word.
"""

import concurrent.futures
import sys
import threading

import pytest

import hmt.limits
import hmt.parallel
from hmt.errors import NumericError
from hmt.limits import word_volumes
from hmt.parallel import ordered_map, usable_cpus
from hmt.rng import TAG_VOLUME_MC, mix


def fields(estimates):
    return [(e.value, e.stderr, e.samples, e.method) for e in estimates]


@pytest.fixture
def submits(monkeypatch):
    """Counts the tasks submitted to, and the workers of, every pool started."""
    seen = {"submits": 0, "max_workers": []}

    class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            seen["max_workers"].append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, *args, **kwargs):
            seen["submits"] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
    return seen


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 50])
    def test_results_in_item_order(self, workers):
        assert ordered_map(lambda i: i * i, 20, workers) == [i * i for i in range(20)]

    def test_no_items(self, submits):
        assert ordered_map(lambda i: i, 0, 4) == []
        assert submits["submits"] == 0

    @pytest.mark.parametrize("workers, count, want", [(3, 10, 3), (8, 5, 5), (2, 1, 0), (1, 9, 0)])
    def test_one_task_per_worker_and_no_more_workers_than_items(
            self, submits, workers, count, want):
        ordered_map(lambda i: i, count, workers)
        assert submits["submits"] == want
        assert submits["max_workers"] == ([want] if want else [])

    def test_item_i_runs_on_worker_i_mod_w(self):
        threads = {}

        def record(i):
            threads[i] = threading.get_ident()
            return i

        ordered_map(record, 12, 3)
        for i in range(12):
            assert threads[i] == threads[i % 3]

    @pytest.mark.parametrize("error", [NumericError("item failed"), KeyboardInterrupt()])
    def test_a_failure_stops_every_worker(self, error):
        failed = threading.Event()
        started_after = []

        def fn(i):
            if failed.is_set():
                started_after.append(i)
            if i == 7:
                failed.set()
                raise error
            return i

        with pytest.raises(type(error)):
            ordered_map(fn, 1000, 3)
        assert len(started_after) <= 3

    def test_more_workers_than_cores_under_a_short_switch_interval(self):
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: out.update(result=ordered_map(lambda i: i % 97, 20_000, 8)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out["result"] == [i % 97 for i in range(20_000)]

    def test_usable_cpus_is_positive(self):
        assert usable_cpus() >= 1


class TestMonteCarloWordVolumes:
    def test_threads_per_usable_cpu_from_the_draw_floor(self, monkeypatch):
        monkeypatch.setattr(hmt.parallel, "usable_cpus", lambda: 4)
        assert hmt.limits.mc_threads(hmt.limits.MC_POOL_MIN_DRAWS - 1) == 1
        assert hmt.limits.mc_threads(hmt.limits.MC_POOL_MIN_DRAWS) == 4

    @pytest.mark.parametrize("family", ["toeplitz", "hankel"])
    @pytest.mark.parametrize("k", [4, 5])
    def test_worker_count_changes_no_estimate(self, monkeypatch, family, k):
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws, workers=workers: workers)
            runs[workers] = fields(word_volumes((family,), k, "mc", 2000, 314159)[family])
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hankel_alone_equals_hankel_beside_toeplitz(self, monkeypatch, workers):
        # the two families count the same points, drawn once per word
        monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws: workers)
        alone = word_volumes(("hankel",), 5, "mc", 3000, 314159)["hankel"]
        both = word_volumes(("toeplitz", "hankel"), 5, "mc", 3000, 314159)
        assert fields(alone) == fields(both["hankel"])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_submits_one_task_per_worker(self, monkeypatch, submits, workers):
        monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws: workers)
        assert len(word_volumes(("toeplitz",), 4, "mc", 100, 0)["toeplitz"]) == 105
        assert submits["submits"] == (workers if workers > 1 else 0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failure_at_one_word_stops_the_rest(self, monkeypatch, workers):
        k, failing = 4, 10
        failing_seed = mix(TAG_VOLUME_MC, 0, k, failing)
        failed = threading.Event()
        started_after = []
        real = hmt.limits.volumes_mc

        def stub(systems, samples, seed):
            if failed.is_set():
                started_after.append(seed)
            if seed == failing_seed:
                failed.set()
                raise NumericError("volume failed")
            return real(systems, samples, seed)

        monkeypatch.setattr(hmt.limits, "volumes_mc", stub)
        monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws: workers)
        with pytest.raises(NumericError, match="volume failed"):
            word_volumes(("toeplitz",), k, "mc", 2000, 0)
        assert len(started_after) <= workers
