"""Group samples and the benchmark tracer, shared by the test suites."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from su2fourier.group import GroupElement, random_elements


def random_element(rng):
    a, b = random_elements(rng, 1)
    return GroupElement(complex(a[0]), complex(b[0]))


def _normalized(q):
    r = np.sqrt(sum(c * c for c in q))
    return GroupElement(complex(q[0], q[1]) / r, complex(q[2], q[3]) / r)


# unit quaternions from the cube [-1, 1]^4, poles and axis points included
elements = (
    st.tuples(*[st.floats(-1, 1)] * 4)
    .filter(lambda q: sum(c * c for c in q) > 1e-2)
    .map(_normalized)
)


def load_spans():
    """bench/spans.py as a module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
