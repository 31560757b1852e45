"""The public API carries no parameter that no caller sets.

The rank cutoff is one rule, applied inside ``tcsvd`` and ``inverse``; the
tolerances and sizes below are constants of the code that uses them.
"""

import dataclasses
import inspect

import tprod
from tprod import FormKind, Resolvent, ScalarFn, Series
from tprod.solve import _cluster
from tprod.structure import _sinkhorn_block_circulant

REMOVED = {
    "mixed_block_fn": {"rtol"},
    "random_cone_member": {"rank"},
    "Series.from_coeffs": {"radius"},
    "FormKind": {"_inv"},
    "ScalarFn": {"odd_completed", "series", "deriv", "deriv_radius"},
    "_cluster": {"rtol"},
    "_sinkhorn_block_circulant": {"max_sweeps", "tol"},
    "standard_tfn": {"force_series"},
}


def _callables():
    exported = {name: getattr(tprod, name) for name in tprod.__all__}
    found = {name: obj for name, obj in exported.items() if callable(obj)}
    found.update({"Series.from_coeffs": Series.from_coeffs, "Resolvent.of": Resolvent.of,
                  "_cluster": _cluster, "_sinkhorn_block_circulant": _sinkhorn_block_circulant})
    return found


def test_no_signature_takes_a_removed_parameter():
    found = _callables()
    assert REMOVED.keys() <= found.keys()
    for name, obj in found.items():
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # a callable without a signature
            continue
        assert "tol_rank" not in params, name
        assert not params & REMOVED.get(name, set()), name


def test_no_dataclass_field_is_a_removed_parameter():
    assert "_inv" not in {f.name for f in dataclasses.fields(FormKind)}
    assert "odd_completed" not in {f.name for f in dataclasses.fields(ScalarFn)}
