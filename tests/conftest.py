import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import womble
from womble import build_graph
from womble.graph import AreaGraph, DissimilarityData, adjacency_from_w
from womble.simulate import Lattice


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def path_graph5():
    return build_graph(np.array([(0, 1), (1, 2), (2, 3), (3, 4)]))


@pytest.fixture
def pair_graph():
    """Two areas, one border."""
    return AreaGraph(2, np.array([[0, 1]]))


def fresh_env():
    """The environment for a fresh interpreter that imports this womble."""
    src = str(Path(womble.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# what an AreaGraph may hold: its constructor's fields (and a Lattice's
# shape) and its cached properties; no run, study or command leaves set-up
# on it
GRAPH_FIELDS = {"n", "borders", "area_ids"}
GRAPH_CACHED = {"incidence", "coloring", "n_components"}


def assert_holds_no_setup(graph):
    fields = GRAPH_FIELDS | ({"shape"} if isinstance(graph, Lattice) else set())
    assert fields <= set(vars(graph)) <= fields | GRAPH_CACHED, vars(graph).keys()


def all_ones_adj(graph):
    return adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))


def dis_from_values(graph, values, names=None):
    return DissimilarityData.from_border_values(graph, np.asarray(values, float),
                                                metric_names=names)
