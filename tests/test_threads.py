"""Face stacks split over threads: results of one call, errors in face order, fork safety."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import rand3

from tprod import Tensor3, genfun, gfun, inverse, lstsq, named_scalar_fn, pinv, projectors
from tprod import solve_axb, spectral, specnorm, standard_tfn, tcsvd, tprod, tsvd
from tprod.errors import FnDomainError
from tprod.solve import standard_fn_contour
from tprod.spectral import from_faces, to_faces


def _cpus(monkeypatch, count):
    monkeypatch.setattr(spectral, "_cpus", lambda: count)


def _scaled(rng, n, p, cplx):
    # spectral norm about 1, so exp and the contour's default circle stay tame
    a = rand3(rng, n, n, p, cplx)
    return Tensor3(np.sqrt(n) / np.linalg.norm(a.data) * a.data)


def _results(a, b, d):
    c = tcsvd(a)
    t = tsvd(a)
    yield from (c.sigma, c.uf, c.vhf, c.Ur.data, c.Sr.data, c.Vr.data)
    yield from (t.U.data, t.S.data, t.V.data)
    yield pinv(a).data
    yield from (inverse(a).data, specnorm(a))
    res = solve_axb(a, b, d)
    yield from (res.x.data, res.residual)
    yield from (tprod(a, b).data, gfun(a, named_scalar_fn("sinh")).data, lstsq(a, d).data)
    yield from (q.data for q in projectors(c))
    for name in ("exp", "sinh"):
        yield standard_tfn(a, named_scalar_fn(name)).data
    yield standard_fn_contour(a, named_scalar_fn("exp")).data


@pytest.mark.parametrize("cplx, n, p", [(False, 16, 64), (True, 16, 32), (False, 2, 4096),
                                         (True, 2, 2048)],
                         ids=["real", "complex", "real-2x2", "complex-2x2"])
def test_threaded_faces_equal_one_call_bitwise(rng, monkeypatch, cplx, n, p):
    # 16 x 16 faces, 33 (half spectrum) or 32 of them, and 2 x 2 faces, 2049 or 2048 of
    # them, whose products are broadcast multiply-adds: at or above the threading threshold
    a, b, d = (_scaled(rng, n, p, cplx) for _ in range(3))
    h = p // 2 + 1 if not cplx else p
    assert h * n**2 >= spectral._THREAD_WORK
    runs = {}
    for count in (1, 2, 3):
        _cpus(monkeypatch, count)
        runs[count] = list(_results(a, b, d))
    # one CPU and slices of 5 faces, the last one partial: every kernel runs slice by slice
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(spectral, "_CHUNK", 5 * n * n)
    runs["sliced"] = list(_results(a, b, d))
    for count in (2, 3, "sliced"):
        for one, many in zip(runs[1], runs[count]):
            assert np.asarray(one).dtype == np.asarray(many).dtype
            assert np.array_equal(one, many), count


@pytest.mark.parametrize("cplx, n, p", [(False, 4, 8), (True, 3, 5), (True, 2, 64)],
                         ids=["real", "complex", "complex-2x2"])
def test_threaded_product_chains_equal_one_call_bitwise(rng, monkeypatch, cplx, n, p):
    # with the product threshold at 1 every face-product chain of these small stacks is
    # split over the threads, and a chain of 2x2 faces takes broadcast multiply-adds
    monkeypatch.setattr(spectral, "_PRODUCT_WORK", 1)
    a, b, d = (_scaled(rng, n, p, cplx) for _ in range(3))
    runs = {}
    for count in (1, 2, 3):
        _cpus(monkeypatch, count)
        runs[count] = list(_results(a, b, d))
    for count in (2, 3):
        for one, many in zip(runs[1], runs[count]):
            assert np.asarray(one).dtype == np.asarray(many).dtype
            assert np.array_equal(one, many), count


def test_helpers_take_slices_and_one_cpu_starts_none(monkeypatch):
    names, parts = [], []
    both = threading.Event()

    def work(part):
        # each slice waits until a second thread has taken the other one
        names.append(threading.current_thread().name)
        parts.append((part.start, part.stop))
        if len(set(names)) == 2:
            both.set()
        both.wait(10)

    _cpus(monkeypatch, 2)
    spectral._each_slice(64, 16 * 16, work)
    assert sorted(parts) == [(0, 32), (32, 64)]
    assert both.is_set() and any(name.startswith("tprod-faces") for name in names)

    def no_helpers(count):
        raise AssertionError("a one-CPU process starts no thread")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(spectral, "_helpers", no_helpers)
    names.clear()
    parts.clear()
    spectral._each_slice(64, 16 * 16, work)
    assert parts == [(0, 64)] and names == [threading.current_thread().name]


def test_lowest_slice_error_wins_when_a_later_slice_fails_first(monkeypatch):
    def work(part):
        # the lowest slice fails last
        time.sleep(0.05 if part.start == 0 else 0.0)
        raise ValueError(part.start)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(spectral, "_CHUNK", 16 * 16 * 8)
    with pytest.raises(ValueError, match="^0$"):
        spectral._each_slice(64, 16 * 16, work)


@pytest.mark.parametrize("threaded", [False, True], ids=["in-order", "threaded"])
def test_no_slice_holds_more_than_a_chunk_or_one_face(monkeypatch, threaded):
    _cpus(monkeypatch, 2)
    for h, n in [(1, 200), (5, 200), (3, 128), (16, 128), (64, 32), (33, 16), (4096, 2),
                 (1025, 4), (17, 3)]:
        parts, sizes = [], []
        spectral._each_slice(h, n * n, parts.append, threaded)
        assert [i for part in sorted(parts, key=lambda s: s.start)
                for i in range(part.start, part.stop)] == list(range(h))
        # and what _per_face hands its kernel, one slice or many
        spectral._per_face(lambda d: sizes.append(d.size) or d, (np.zeros((h, n, n)),),
                           ((n, n), np.float64))
        for size in [(part.stop - part.start) * n * n for part in parts] + sizes:
            assert size <= max(spectral._CHUNK, n * n), (h, n)


def _transforms(a):
    """Every transform of to_faces and from_faces on ``a``, the mirrored one included."""
    half, (faces,) = to_faces(a)
    yield faces
    yield from_faces(faces, a.p, half).data
    if half:
        # an imaginary face 0 is mirrored and comes back through ifft
        tilted = faces.copy()
        tilted[0] += 1j * np.abs(faces).max()
        yield from_faces(tilted, a.p, half).data


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p, m, n", [(16, 64, 128), (17, 48, 160), (32, 1, 4096),
                                     (33, 1, 4096)])
def test_split_transforms_equal_one_call_bitwise(rng, monkeypatch, cplx, p, m, n):
    # at least four slices (2^16 complex elements, p // 2 + 1 faces for real input): split
    # by rows over two CPUs, a row of m = 1 into one part
    a = rand3(rng, m, n, p, cplx)
    splits = []
    each_slice = spectral._each_slice
    monkeypatch.setattr(spectral, "_each_slice",
                        lambda h, size, work, threaded=None: splits.append(h)
                        or each_slice(h, size, work, threaded))
    runs = {}
    for count in (1, 2):
        _cpus(monkeypatch, count)
        runs[count] = list(_transforms(a))
        assert splits == ([m] * len(runs[count]) if count == 2 else [])
    for one, many in zip(runs[1], runs[2], strict=True):
        assert one.dtype == many.dtype and one.shape == many.shape
        assert np.array_equal(one, many)


def test_small_transforms_stay_on_the_calling_thread(rng, monkeypatch):
    # 2^14 elements: two threads took 0.071 -> 0.12 ms on a complex 2x2x4096 fft
    def no_split(*args):
        raise AssertionError("a transform below four slices is one call")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(spectral, "_each_slice", no_split)
    for cplx in (False, True):
        list(_transforms(rand3(rng, 2, 2, 4096, cplx)))


def _two_bad_faces(name):
    rng = np.random.default_rng(5)
    faces = 0.1 * (rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16)))
    for k in (20, 50):
        faces[k] = np.diag(np.r_[800.0, np.ones(15)])
    return Tensor3(np.fft.ifft(faces, axis=0)), name


@pytest.mark.parametrize("name", ["exp", "sinh"])
@pytest.mark.parametrize("chunk_faces", [4, 256])
def test_threaded_overflow_names_the_lowest_face_without_warnings(monkeypatch, name,
                                                                  chunk_faces):
    # faces 20 and 50 overflow, in different slices. A warning turned into an error in
    # the slice of face 50 would hide behind face 20's, so warnings are recorded instead.
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(spectral, "_CHUNK", 16 * 16 * chunk_faces)
    a, name = _two_bad_faces(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FnDomainError, match=f"{name} not finite on face 20$"):
            standard_tfn(a, named_scalar_fn(name))
    assert caught == []


def test_pade_stacks_below_the_product_threshold_stay_on_the_calling_thread(rng, monkeypatch):
    # the Pade kernel counts as a chain of 16 n^3 multiply-adds a face: 513 real 4x4 faces
    # (2^19) stay on the calling thread, 64 complex 16x16 faces (2^22) are split
    splits = []
    each_slice = spectral._each_slice
    monkeypatch.setattr(spectral, "_each_slice",
                        lambda h, size, work, threaded=None: splits.append((h, size, threaded))
                        or each_slice(h, size, work, threaded))
    _cpus(monkeypatch, 2)
    standard_tfn(_scaled(rng, 4, 1024, False), named_scalar_fn("exp"))
    assert splits == []
    standard_tfn(_scaled(rng, 16, 64, True), named_scalar_fn("exp"))
    assert splits == [(64, 16 * 16, True)]


@pytest.mark.parametrize("early", [True, False], ids=["pool-built", "no-pool"])
def test_call_from_an_atexit_hook_runs_on_the_calling_thread(early):
    # at interpreter shutdown the pool takes no new work, whether or not it was built
    code = f"""
import atexit, numpy as np, tprod
from tprod import spectral
a = tprod.Tensor3(np.random.default_rng(0).standard_normal((16, 64, 64)))
spectral._cpus = lambda: 1
want = tprod.tcsvd(a).sigma
spectral._cpus = lambda: 2
if {early}:
    tprod.tcsvd(a)
atexit.register(lambda: print(np.array_equal(tprod.tcsvd(a).sigma, want)))
"""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")


def _child_tcsvd(a, want):
    got = tcsvd(a).sigma
    raise SystemExit(0 if np.array_equal(got, want) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_forked_child_builds_its_own_helpers(rng, monkeypatch):
    # the parent's pool has run; the child inherits its bookkeeping but no thread
    _cpus(monkeypatch, 2)
    a = rand3(rng, 64, 64, 16)
    want = tcsvd(a).sigma
    assert spectral._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_child_tcsvd, args=(a, want))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in the face threads")
    assert child.exitcode == 0


def _child_exp(a, want):
    helpers = []
    pade = genfun._expm_chunk

    def spy(d):
        helpers.append(threading.current_thread().name.startswith("tprod-faces"))
        return pade(d)

    genfun._expm_chunk = spy
    got = standard_tfn(a, named_scalar_fn("exp")).data
    raise SystemExit(0 if np.array_equal(got, want) and any(helpers) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_products_inside_a_threaded_slice_start_no_helpers(rng, monkeypatch):
    # the Pade kernel's two slices run on the calling thread and a helper, and with the
    # product threshold at 1 each of their products would be split again: on the helper,
    # a split that submitted to the pool would wait on the helper itself
    a = _scaled(rng, 16, 64, True)
    _cpus(monkeypatch, 1)
    want = standard_tfn(a, named_scalar_fn("exp")).data
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(spectral, "_PRODUCT_WORK", 1)
    child = multiprocessing.get_context("fork").Process(target=_child_exp, args=(a, want))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a product inside a threaded slice waited on the face threads")
    assert child.exitcode == 0


def test_cpus_fall_back_to_the_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert spectral._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral._cpus() == 1


def _two_threads_take_slices():
    # True when a helper thread and the calling thread each took one of the two slices
    names = []
    both = threading.Event()

    def work(part):
        names.append(threading.current_thread().name)
        if len(set(names)) == 2:
            both.set()
        both.wait(10)

    spectral._each_slice(64, 16 * 16, work)
    return both.is_set() and any(name.startswith("tprod-faces") for name in names)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_forked_child_runs_a_threaded_slice_after_the_parent_started_the_pool(monkeypatch):
    _cpus(monkeypatch, 2)
    assert _two_threads_take_slices()
    parent_pool = spectral._pool
    assert parent_pool is not None
    pid = os.fork()
    if pid == 0:
        # the child: whatever happens, leave without running the parent's test teardown
        code = 1
        try:
            fresh = spectral._pool is None
            code = 0 if fresh and _two_threads_take_slices() and spectral._pool is not parent_pool \
                else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in the face threads")
        time.sleep(0.02)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
