"""The extension technique (Section 5 of the paper).

Before building an S²BDD, the input uncertain graph can be shrunk without
changing the reliability:

1. **Prune** (:mod:`repro.preprocess.prune`) — drop every vertex and edge
   that cannot influence terminal connectivity, found via the minimal
   Steiner subtree of the bridge tree over 2-edge-connected components.
2. **Decompose** (:mod:`repro.preprocess.decompose`) — remove bridges; each
   must exist for the terminals to connect, so the reliability factors as
   ``R = p_b · Π_i R[G_i, T_i]`` (Lemma 5.1).
3. **Transform** (:mod:`repro.preprocess.transform`) — repeatedly apply
   series, parallel, and self-loop reductions inside each component.

:func:`repro.preprocess.pipeline.preprocess` chains the three phases and is
what the ``"s2bdd"`` backend (:class:`repro.engine.backends.S2BDDBackend`)
calls when the extension is enabled.
"""

from repro.preprocess.decompose import DecomposeResult, decompose
from repro.preprocess.pipeline import PreprocessResult, Subproblem, preprocess
from repro.preprocess.prune import prune
from repro.preprocess.transform import transform

__all__ = [
    "DecomposeResult",
    "PreprocessResult",
    "Subproblem",
    "decompose",
    "preprocess",
    "prune",
    "transform",
]
