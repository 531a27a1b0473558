import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survscore import WeightSpec, parse_dataset
from survscore.cli import parse_method_spec
from survscore.svgplot import PlotPanel, nice_ceiling, render_svg
from tests import oracles
from tests.conftest import random_dataset, simulated_trial_csv

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


def toy_panel(toy):
    scaled = WeightSpec.logrank().scaled(toy)
    return PlotPanel.from_values("log-rank", toy.times, scaled, toy.arms, toy.events)


def mean_lines(group):
    return [el for el in group.findall("svg:line", SVG_NS) if "mean-line" in el.get("class", "")]


def test_panel_structure(toy):
    panel = toy_panel(toy)
    root = ET.fromstring(render_svg([panel]))  # must be well-formed XML
    groups = root.findall("svg:g", SVG_NS)
    assert len(groups) == 1
    circles = groups[0].findall("svg:circle", SVG_NS)
    assert len(circles) == toy.n
    censored = [c for c in circles if "censored" in c.get("class")]
    assert len(censored) == sum(1 for s in toy.subjects if s.event == 0)
    assert {c.get("class").split()[1] for c in circles} == {"arm0", "arm1"}

    lines = mean_lines(groups[0])
    assert len(lines) == 2
    assert all(l.get("stroke-dasharray") for l in lines)
    got = sorted(float(l.get("data-mean")) for l in lines)
    assert got == sorted(panel.arm_means)

    labels = [t.text for t in groups[0].findall("svg:text", SVG_NS)]
    assert "Time (months)" in labels
    assert "Standardized score" in labels
    assert "log-rank" in labels


def test_mean_lines_match_statistic(toy):
    panel = toy_panel(toy)
    root = ET.fromstring(render_svg([panel]))
    lines = mean_lines(root.findall("svg:g", SVG_NS)[0])
    gap = abs(float(lines[0].get("data-mean")) - float(lines[1].get("data-mean")))
    values_by_arm = {0: [], 1: []}
    for value, arm in zip(panel.values, panel.arms):
        values_by_arm[arm].append(value)
    statistic = sum(values_by_arm[1]) / len(values_by_arm[1]) - sum(values_by_arm[0]) / len(
        values_by_arm[0]
    )
    assert gap == pytest.approx(abs(statistic), abs=1e-9)


def test_multi_panel_layout_and_shared_axis(toy):
    panel = toy_panel(toy)
    svg = render_svg([panel, panel, panel, panel], columns=3)
    root = ET.fromstring(svg)
    groups = root.findall("svg:g", SVG_NS)
    assert len(groups) == 4
    transforms = [g.get("transform") for g in groups]
    assert transforms[0] == "translate(0,0)"
    assert transforms[3] == "translate(0,300)"  # wrapped to the second row
    # identical specs render identical panel bodies
    first = ET.tostring(groups[0]).replace(b"translate(0,0)", b"")
    second = ET.tostring(groups[1]).replace(b"translate(360,0)", b"")
    assert first == second


def test_arm_means_add_left_to_right():
    # 1 + 1e-16 rounds back to 1 at each step; a compensated sum (sum() from Python 3.12
    # on) would keep the 2e-16, and the full-precision data-mean would move
    values = (1.0, 1e-16, 1e-16, 0.5)
    panel = PlotPanel.from_values("t", (1.0, 2.0, 3.0, 4.0), values, (0, 0, 0, 1), (1, 1, 1, 1))
    assert panel.arm_means == (1.0 / 3, 0.5)


def test_deterministic_output(toy):
    panel = toy_panel(toy)
    assert render_svg([panel]) == render_svg([panel])


def test_one_subject_per_arm_lines_sit_on_markers():
    panel = PlotPanel.from_values("x", (1.0, 2.0), (1.0, -1.0), (0, 1), (1, 1))
    assert panel.arm_means == (1.0, -1.0)
    root = ET.fromstring(render_svg([panel]))
    group = root.findall("svg:g", SVG_NS)[0]
    circles = group.findall("svg:circle", SVG_NS)
    assert len(circles) == 2
    line_y = {
        line.get("class").split()[-1]: float(line.get("data-mean"))
        for line in mean_lines(group)
    }
    for circle in circles:
        arm = circle.get("class").split()[1]
        assert line_y[arm] == float(circle.get("data-value"))


def compare_panels(ds, specs):
    """Panels as ``compare`` builds them: every one shares the dataset's columns."""
    panels = []
    for text in specs:
        spec = parse_method_spec(text)
        scaled = spec.scaled(ds)
        panels.append(PlotPanel.from_values(spec.describe(), ds.times, scaled, ds.arms, ds.events))
    return panels


def test_points_match_per_point_oracle_on_shared_columns(tmp_path):
    trial = parse_dataset(simulated_trial_csv(tmp_path).read_text(encoding="utf-8"))
    panels = compare_panels(trial, ["logrank", "fh:rho=0,gamma=1", "rmst:tau=18",
                                    "milestone:kappa=18,backend=exp"])
    assert render_svg(panels, columns=2) == oracles.render_svg(panels, columns=2)


def test_points_match_per_point_oracle_across_datasets(toy):
    # two datasets in one figure: each set of columns gets its own point text, drawn
    # on the figure's shared time axis, and panels alternate between the two sets
    other = random_dataset(7, max_n=30)
    assert other.n != toy.n and other.times != toy.times
    panels = compare_panels(toy, ["logrank", "mw:sstar=0.5"])
    panels[1:1] = compare_panels(other, ["fh:rho=1,gamma=0"])
    assert render_svg(panels) == oracles.render_svg(panels)


def test_points_match_per_point_oracle_on_library_panels():
    # int and bool labels, an int value, and int times beside equal float times,
    # which must keep writing data-time="1" and data-time="1.0" respectively
    arms, events = (0, 1, True, False), (1, 0, True, 0)
    panels = [
        PlotPanel.from_values("ints", (1, 2, 3, 4), (0.5, -0.25, 1, -1.0), arms, events),
        PlotPanel.from_values("floats", (1.0, 2.0, 3.0, 4.0), (0.5, -0.25, 1, -1.0), arms, events),
    ]
    svg = render_svg(panels)
    assert svg == oracles.render_svg(panels)
    assert 'data-time="1" ' in svg and 'data-time="1.0" ' in svg


def titled_panels(title):
    return [PlotPanel(title, (1.0, 2.0, 3.0), (0.5, -0.5, 0.25), (0, 1, 1), (1, 1, 0))]


@pytest.mark.parametrize("title", ['a&b<c>d"e\'f', "&amp;", "&quot;", "]]>"])
def test_title_escaping_matches_oracle(title):
    panels = titled_panels(title)
    svg = render_svg(panels)
    assert svg == oracles.render_svg(panels)
    assert ET.fromstring(svg).find("svg:g", SVG_NS).get("data-method") == title


@given(title=st.text())
@settings(max_examples=200, deadline=None)
def test_any_title_escapes_as_oracle(title):
    panels = titled_panels(title)
    assert render_svg(panels) == oracles.render_svg(panels)


def test_panel_refuses_labels_outside_0_1():
    # an arm of 2 used to be drawn unstyled and left out of both mean lines
    with pytest.raises(ValueError, match="arm must be 0 or 1, got 2"):
        PlotPanel.from_values("x", (1.0, 2.0, 3.0), (0.5, -0.5, 0.0), (0, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="event must be 0 or 1, got -1"):
        PlotPanel.from_values("x", (1.0, 2.0), (0.5, -0.5), (0, 1), (1, -1))


def test_bool_labels_draw_as_ints():
    panel = PlotPanel.from_values("x", (1.0, 2.0), (1.0, -1.0), (False, True), (True, False))
    assert panel.arm_means == (1.0, -1.0)
    circles = ET.fromstring(render_svg([panel])).findall("svg:g/svg:circle", SVG_NS)
    classes = [c.get("class") for c in circles]
    assert classes == ["point arm0", "point arm1 censored"]


def test_panel_needs_both_arms():
    with pytest.raises(ValueError, match="arm 1"):
        PlotPanel.from_values("x", (1.0, 2.0), (0.5, -0.5), (0, 0), (1, 1))


def test_panel_derives_arm_means():
    columns = ((1.0, 2.0, 3.0), (0.5, -0.5, 0.25), (0, 1, 1), (1, 1, 0))
    assert PlotPanel("x", *columns).arm_means == (0.5, -0.125)
    with pytest.raises(TypeError):
        PlotPanel("x", *columns, (0.5, -0.125))  # means are not an input


def test_panel_refuses_columns_of_unequal_length():
    # zipping the columns would silently drop the third subject
    with pytest.raises(ValueError, match="equal lengths"):
        PlotPanel.from_values("x", (1.0, 2.0, 3.0), (0.5, -0.5), (0, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError, match="equal lengths"):
        PlotPanel("x", (1.0, 2.0), (0.5, -0.5), (0, 1), (1,))


def test_from_values_shares_tuple_columns(toy):
    panel = toy_panel(toy)
    assert panel.times is toy.times and panel.arms is toy.arms and panel.events is toy.events


def test_render_empty():
    with pytest.raises(ValueError, match="nothing to render"):
        render_svg([])


def test_render_rejects_columns_below_one(toy):
    for columns in (0, -2):
        with pytest.raises(ValueError, match="columns"):
            render_svg([toy_panel(toy)], columns=columns)


def test_nice_ceiling():
    assert nice_ceiling(34.64) == 40.0
    assert nice_ceiling(9.9) == 10.0
    assert nice_ceiling(10.0) == 10.0
    assert nice_ceiling(0.7) == 0.8
    assert nice_ceiling(-1.0) == 1.0


@pytest.mark.parametrize("x", [1.2e308, 1.5e308, 1.6e308, 1.7976931348623157e308,
                               5e-324, 1e-323, 2.5e-323, 1e-310])
def test_nice_ceiling_is_finite_and_covers_x_at_the_float_range_ends(x):
    # past 1.5e308 the next round number is inf, below ~1e-323 the power of 10 is 0
    ceiling = nice_ceiling(x)
    assert x <= ceiling < math.inf
