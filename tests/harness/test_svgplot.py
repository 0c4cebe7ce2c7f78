"""Tests for the SVG figure renderer."""

import xml.etree.ElementTree as ET

import pytest

from repro.harness import SeriesResult, render_series_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def series(n=4):
    r = SeriesResult(name="demo fig", x_label="processors",
                     xs=[float(2 ** i) for i in range(n)])
    r.series["cni"] = [1.0 * (i + 1) for i in range(n)]
    r.series["standard"] = [0.8 * (i + 1) for i in range(n)]
    return r


def parse(svg: str):
    return ET.fromstring(svg)


def test_renders_valid_xml():
    root = parse(render_series_svg(series()))
    assert root.tag == f"{SVG_NS}svg"


def test_contains_one_polyline_per_series():
    root = parse(render_series_svg(series()))
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    # each polyline has one point per x value
    for p in polylines:
        assert len(p.attrib["points"].split()) == 4


def test_failed_points_are_gaps():
    r = series()
    r.series["cni"][0] = float("nan")
    svg = render_series_svg(r)
    assert "nan" not in svg
    polylines = parse(svg).findall(f".//{SVG_NS}polyline")
    assert [len(p.attrib["points"].split()) for p in polylines] == [3, 4]


def test_legend_and_labels_present():
    svg = render_series_svg(series(), y_label="speedup", title="Figure 2")
    assert "Figure 2" in svg
    assert "speedup" in svg
    assert "processors" in svg
    assert "cni" in svg and "standard" in svg


def test_series_subset_selection():
    root = parse(render_series_svg(series(), series=["cni"]))
    assert len(root.findall(f".//{SVG_NS}polyline")) == 1
    with pytest.raises(KeyError):
        render_series_svg(series(), series=["nope"])


def test_escapes_markup_in_names():
    r = series()
    r.name = "<b>evil</b>"
    svg = render_series_svg(r)
    assert "<b>" not in svg
    parse(svg)  # still valid


def test_empty_rejected():
    r = SeriesResult(name="empty", x_label="x", xs=[])
    with pytest.raises(ValueError):
        render_series_svg(r)


def test_constant_series_does_not_crash():
    r = SeriesResult(name="flat", x_label="x", xs=[1.0, 2.0])
    r.series["y"] = [5.0, 5.0]
    parse(render_series_svg(r))


def test_single_point():
    r = SeriesResult(name="pt", x_label="x", xs=[3.0])
    r.series["y"] = [7.0]
    parse(render_series_svg(r))


def test_coordinates_inside_viewbox():
    root = parse(render_series_svg(series(), width=640, height=420))
    for p in root.findall(f".//{SVG_NS}polyline"):
        for pair in p.attrib["points"].split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= 640
            assert 0 <= y <= 420
