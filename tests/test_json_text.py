"""``vertex.json_text``, the one JSON text writer, against ``json.dumps``.

The oracle is the payload conversion the CLI used before the writer
(``_json_ready``, copied below), followed by
``json.dumps(..., indent=2, sort_keys=True)``; numpy arrays, which the
writer formats in bulk, are handed to the oracle as their ``tolist()``.
"""

import json

import numpy as np
import pytest

from qstar import bc_to_dict, bc_to_json, make_delta, make_st_form
from qstar.vertex import json_text

from conftest import rng_for


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if np.isnan(x) else x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(v) for v in obj]
    return obj


def oracle(obj) -> str:
    return json.dumps(_json_ready(_lists(obj)), indent=2, sort_keys=True)


STRINGS = ["", "k", 'quote " and \\ backslash', "line\nbreak\ttab\r", "\x00\x1f\x7f",
           "non-ASCII: ünïcødé ½ Ω", "  ", "emoji \U0001f600", "/slash/"]
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 1.7976931348623157e308,
            0.1, 2**63, 2**64 + 7, -(2**70), 0, -1, True, False, None,
            np.float64(0.1), np.float64(np.nan), np.float64(-np.inf), np.float32(0.1),
            np.int64(-(2**62)), np.uint64(2**64 - 1), np.int8(-3), np.bool_(True), np.bool_(False)]


def _leaf(rng):
    kind = rng.integers(4)
    if kind == 0:
        return SPECIALS[rng.integers(len(SPECIALS))]
    if kind == 1:
        return STRINGS[rng.integers(len(STRINGS))]
    if kind == 2:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-20, 21))
    return int(rng.integers(-(10**6), 10**6))


def _array(rng):
    shape = tuple(int(s) for s in rng.integers(0, 4, size=rng.integers(1, 4)))
    kind = rng.integers(3)
    if kind == 0:
        return rng.random(shape) < 0.5
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17)
    if kind == 1 and arr.size:
        arr.flat[rng.integers(arr.size, size=2)] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 2)
    return arr


def payload(rng, depth=0):
    kind = rng.integers(5) if depth < 4 else 0
    if kind == 0:
        return _leaf(rng)
    if kind == 1:
        return _array(rng)
    items = [payload(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {STRINGS[rng.integers(len(STRINGS))] + str(i): v for i, v in enumerate(items)}


def test_writer_matches_json_dumps_on_seeded_payloads():
    rng = rng_for("json_text")
    for _ in range(400):
        obj = payload(rng)
        assert json_text(obj) == oracle(obj), obj


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": np.zeros((0,))}, np.zeros((2, 0)), np.zeros((0, 3)),
    np.array([[np.nan, 1.0], [np.inf, -0.0]]), np.array([True, False]),
    np.arange(6, dtype=np.int64).reshape(3, 2), np.array([1.5, 2.5], dtype=np.float32),
    {"z": 1, "a": [1.0, {"y": None, "b": [np.float64(np.nan)]}]},
], ids=["empty-dict", "empty-list", "empty-tuple", "empty-values", "2x0", "0x3",
        "non-finite", "bool", "int64", "float32", "nested"])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert json_text(obj) == oracle(obj)


def test_non_string_keys_are_refused():
    with pytest.raises(TypeError):
        json_text({1: 0.5})


def test_bc_json_matches_json_dumps_of_bc_dict():
    rng = rng_for("bc_to_json")
    for n in range(1, 17):
        couplings = [make_delta(n, float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4)))]
        if n >= 2:
            m = int(rng.integers(1, n))
            T = rng.uniform(-3, 3, (m, n - m)) + 1j * rng.uniform(-3, 3, (m, n - m))
            couplings += [make_st_form(n, m, T), make_st_form(n, m, T.real)]
        for bc in couplings:
            data = bc_to_dict(bc)
            assert data["A"] == [[[float(z.real), float(z.imag)] for z in row] for row in bc.A]
            assert data["B"] == [[[float(z.real), float(z.imag)] for z in row] for row in bc.B]
            assert bc_to_json(bc) == json.dumps(data, indent=2, sort_keys=True)


def test_array_layouts_are_keyed_by_shape_and_level():
    rng = rng_for("json_layouts")
    a, b, c = (rng.standard_normal((2, 3)) for _ in range(3))
    obj = {"x": a, "y": b, "deeper": {"x": c, "list": [a, (b,)]}, "z": c.T, "flat": a.ravel()}
    assert json_text(obj) == oracle(obj)
    assert json_text(obj) == oracle(obj)  # every layout now from the cache
    assert json_text(a) == oracle(a)


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 2, 2), (1,), (7,), (4, 5), (2, 3, 4)],
                         ids=str)
def test_non_finite_entries_in_float_arrays(shape):
    rng = rng_for(f"json_non_finite{shape}")
    for _ in range(20):
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17)
        if arr.size:
            picks = rng.integers(arr.size, size=rng.integers(1, arr.size + 1))
            arr.flat[picks] = rng.choice([np.nan, np.inf, -np.inf, -0.0], picks.size)
        for obj in (arr, {"a": arr, "b": [arr]}):
            assert json_text(obj) == oracle(obj), arr


def test_element_text_is_never_read_as_a_format():
    strings = ["%", "%s", "%r", "%%", "100%", "%(k)s", "%d%%s", "%s%s%s"]
    arr = np.array(strings + ["plain"], dtype=object).reshape(3, 3)
    for obj in (arr, arr[0], np.array("%s", dtype=object), {"%s": arr, "%r": [arr[:, 1]]}):
        assert json_text(obj) == oracle(obj)
