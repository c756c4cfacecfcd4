"""The package's public names: every entry of __all__ resolves."""

import borncraft


def test_all_names_resolve():
    assert len(set(borncraft.__all__)) == len(borncraft.__all__)
    for name in borncraft.__all__:
        assert hasattr(borncraft, name), name


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from borncraft import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(borncraft.__all__)


def test_removed_names_stay_removed():
    for name in ("StateVector", "support", "LearnedAffine", "in_affine_span", "rank"):
        assert name not in borncraft.__all__
        assert not hasattr(borncraft, name)
