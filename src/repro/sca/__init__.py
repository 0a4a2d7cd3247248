"""Static code analysis: TAC IR, CFG, data-flow chains, analyzer, bytecode
front-end (the paper's Section 5 component, Soot replaced by ``dis``).

UDFs are Python callables; TAC is only the IR that
:func:`compile_to_tac` makes of their bytecode for :func:`analyze_tac`."""

from .analyzer import AnalysisEscape, analyze_tac
from .api import analyze_udf
from .cfg import BasicBlock, ControlFlowGraph
from .chains import Chains, build_chains
from .dataflow import ReachingDefinitions, reaching_definitions
from .pybytecode import compile_to_tac
from .tac import TACFunction

__all__ = [
    "AnalysisEscape",
    "BasicBlock",
    "Chains",
    "ControlFlowGraph",
    "ReachingDefinitions",
    "TACFunction",
    "analyze_tac",
    "analyze_udf",
    "build_chains",
    "compile_to_tac",
    "reaching_definitions",
]
