"""The package's public names."""
import gatedpf


def test_star_import_binds_no_annotations():
    # ``__all__`` is built from the module's names, so a ``__future__``
    # import there would export its feature object as ``annotations``.
    assert "annotations" not in gatedpf.__all__
