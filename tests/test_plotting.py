import os
import subprocess
import sys

import pytest

from rlready.plotting import escape, plot_scatter
from rlready.stats import LabeledPoint, LinearFit


def pts(*pairs):
    return [LabeledPoint(f"m{i}", x, y) for i, (x, y) in enumerate(pairs)]


def test_byte_identical_for_identical_input():
    points = pts((0.1, 0.2), (0.5, 0.6), (0.9, 0.7))
    fit = LinearFit(0.5, 0.15)
    a = plot_scatter(points, fit, r2=0.93)
    b = plot_scatter(points, fit, r2=0.93)
    assert a == b
    assert a.encode() == b.encode()


def test_single_point_has_one_circle():
    svg = plot_scatter(pts((0.5, 0.5)), LinearFit(1.0, 0.0))
    assert svg.count("<circle") == 1


def test_empty_points_rejected():
    with pytest.raises(ValueError, match="zero points"):
        plot_scatter([], LinearFit(1.0, 0.0))


def test_canvas_and_structure():
    svg = plot_scatter(pts((0, 0), (1, 1)), LinearFit(1.0, 0.0), r2=1.0)
    assert 'width="800" height="600"' in svg
    assert svg.count("<circle") == 2
    assert 'stroke="#d62728"' in svg  # the fit line
    assert "R&#178; = 1.0000" in svg


def test_axis_labels_escaped():
    svg = plot_scatter(
        pts((0, 0), (1, 1)),
        None,
        x_label="pass@64 <macro>",
        y_label="post-RL & more",
    )
    assert "pass@64 &lt;macro&gt;" in svg
    assert "post-RL &amp; more" in svg
    assert 'stroke="#d62728"' not in svg  # no fit requested


def test_description_embedded():
    svg = plot_scatter(pts((0, 0), (1, 1)), None, description='{"seed": 7}')
    assert '<desc>{"seed": 7}</desc>' in svg


def test_degenerate_ranges_still_render():
    svg = plot_scatter(pts((0.5, 0.5), (0.5, 0.5)), None)
    assert svg.count("<circle") == 2
    assert "nan" not in svg


def test_fit_line_kept_in_view():
    # steep fit: the y-range must expand to include the line's endpoints
    svg = plot_scatter(pts((0, 0), (1, 0.1)), LinearFit(10.0, -2.0))
    assert 'stroke="#d62728"' in svg
    assert "nan" not in svg and "-inf" not in svg


@pytest.mark.parametrize("text", ["", "a<b & c>d", "&amp; &lt;", "<<&>>", "'\"\n"])
def test_escape_writes_what_saxutils_writes(text):
    from xml.sax.saxutils import escape as sax_escape

    assert escape(text) == sax_escape(text)


def test_importing_the_cli_loads_no_url_http_or_xml_module():
    code = ("import sys, rlready.cli; "
            "print(sorted({'urllib.request', 'http.client', 'xml.sax'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
