"""The demos run end to end and write the files their docstrings name."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str, outdir: Path) -> None:
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(outdir)


@pytest.mark.parametrize("name, files", [
    ("analytic_signal", ["analytic_signal.csv"]),
    ("load_loss_comparison",
     ["load_loss.csv", "load_loss_omega_coi.svg", "load_loss_p_cig.svg"]),
])
def test_demo_writes_its_files(name, files, tmp_path, capsys):
    run_demo(name, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for f in files:
        text = (tmp_path / f).read_text()
        if f.endswith(".svg"):
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        else:
            header, *rows = text.splitlines()
            assert header.startswith("t,") and len(rows) > 1
            assert all(len(r.split(",")) == len(header.split(",")) for r in rows)
    assert "wrote" in capsys.readouterr().out
