"""The benchmark's tracer can still wrap every function it names."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def test_tracer_patches_and_restores_every_hook(spans):
    def current():
        out = []
        for path, attr, _, _ in spans.PATCHES:
            owner = spans._resolve(path)  # raises when a patched name is gone
            out.append(vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr))
        return out

    before = current()
    with spans.Tracer().patched():
        during = current()
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))
