"""Verify suites: a passing check renders its two sides once, and the
reports are the same as when both sides are rendered."""

import pytest

from hallalg import verify
from hallalg.quiverrep import Quiver


def _render_both(cid, lhs, rhs, render):
    return verify._check(cid, lhs == rhs, render(lhs), render(rhs))


_CASES = {
    **{
        f"{name}-classical": (name, {"backend": "classical", "deg": 4})
        for name in ("green", "hopf-pairing", "antipode")
    },
    "steinitz-classical": ("steinitz", {"deg": 4}),
    **{
        f"{name}-{qname}": (name, {"backend": "quiver", "quiver": Q, "q": 2, "deg": 3})
        for qname, Q in (("a2", Quiver.a2()), ("kronecker", Quiver.kronecker()))
        for name in ("green", "hopf-pairing", "antipode")
    },
}


@pytest.mark.parametrize("name,kwargs", list(_CASES.values()), ids=list(_CASES))
def test_reports_match_rendering_both_sides(monkeypatch, name, kwargs):
    once = verify.run_suite(name, **kwargs)
    monkeypatch.setattr(verify, "_compare", _render_both)
    both = verify.run_suite(name, **kwargs)
    assert once == both
    assert verify.all_passed(once)


def test_failing_check_renders_both_sides(monkeypatch):
    real = verify.multiply
    monkeypatch.setattr(verify, "multiply", lambda b, x, y: real(b, x, y).scale(2))
    checks = verify.suite_green(backend="classical", deg=3)
    assert checks and all(c["status"] == "fail" for c in checks)
    assert all(c["lhs"] != c["rhs"] for c in checks)
