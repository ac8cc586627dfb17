"""Every example script must run end-to-end (trimmed sizes via monkeypatch
where needed -- the scripts themselves stay user-scale)."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "found" in out and "clusters" in out
        assert "dendrogram" in out

    def test_image_segmentation(self, capsys):
        out = run_example("image_segmentation.py", capsys)
        assert "segments" in out

    def test_device_model(self, capsys):
        out = run_example("device_model.py", capsys)
        assert "MI250X" in out
        assert "extrapolated" in out

    # The examples look their generators up on ``repro.data`` at run time,
    # so that is the name to patch; the printed count proves the trim.
    def test_cosmology_fof(self, capsys, monkeypatch):
        import repro.data

        original = repro.data.hacc_like
        monkeypatch.setattr(
            repro.data, "hacc_like", lambda n, **kw: original(min(n, 5000), **kw)
        )
        out = run_example("cosmology_fof.py", capsys)
        assert "generated 5,000 particles" in out
        assert "halo mass function" in out

    def test_gps_hotspots(self, capsys, monkeypatch):
        import repro.data

        original = repro.data.ngsim_like
        monkeypatch.setattr(
            repro.data, "ngsim_like", lambda n, **kw: original(min(n, 5000), **kw)
        )
        out = run_example("gps_hotspots.py", capsys)
        assert "simulated 5,000 vehicle GPS positions" in out
        assert "identical dendrograms verified" in out
