"""The output layer's bytes, pinned: a change to the CSV or SVG writers
must show up here before it shows up in a run's artifacts."""
import hashlib

from shelab import __version__
from shelab.noise import GENERATOR_ID
from shelab.output import manifest_line, svg_plot, write_csv

MANIFEST = "# manifest: 0123456789abcdef seed=7 generator=test-gen version=0.0.0"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_line_fields():
    # the hash is of the config as loaded, whatever its key order
    line = manifest_line({"seed": 7, "grid": {"n": 8}}, 7)
    assert line == manifest_line({"grid": {"n": 8}, "seed": 7}, 7) == (
        f"# manifest: f6414725c34c63a7 seed=7 generator={GENERATOR_ID} version={__version__}")


def test_csv_bytes(tmp_path):
    write_csv(tmp_path / "a.csv", ["t", "moment", "stderr"],
              [(0.0, 1.0, 0.0), (0.1, 2.5e-3, 1 / 3), (2, "x;y", 7)], MANIFEST)
    assert (tmp_path / "a.csv").read_text() == (
        f"{MANIFEST}\nt,moment,stderr\n0.0,1.0,0.0\n0.1,0.0025,0.3333333333333333\n2,x;y,7\n")


def test_svg_bytes(tmp_path):
    # a sweep-like plot with a slope note, a green-error-like one without,
    # and one point (the degenerate axis ranges)
    svg_plot(tmp_path / "a.svg", "gamma2(lambda)", [1.0, 2.0, 4.0, 8.0],
             [0.5, 3.0, 40.0, 700.0], MANIFEST, "second-moment growth rate vs noise level",
             annotation="slope=4.000 +/- 0.100")
    svg_plot(tmp_path / "b.svg", "semi", [8.0, 16.0], [1e-3, 2.5e-4], MANIFEST,
             "kernel error integral vs n")
    svg_plot(tmp_path / "c.svg", "temporal", [0.5], [0.25], MANIFEST,
             "strong error (temporal)", annotation="order=nan +/- nan")
    assert [sha256(tmp_path / f"{name}.svg") for name in "abc"] == [
        "93b55084c05504ebe11a89d6b22c324ec9447bcb46661bfa6c062b80ad64b332",
        "08aed1528bb6ed7a59679ccfec515c45899f6200787ef6c44ef8d75559081cef",
        "57afe8d90392a9d7879adbe3a7ea49fe836c474caba8308d471de340b3411b28",
    ]
    assert (tmp_path / "c.svg").read_text().splitlines()[1] == f"<!-- {MANIFEST[2:]} -->"
