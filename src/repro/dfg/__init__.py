"""CoSMIC compilation layer, part 1: the Translator and the DFG IR.

``translate`` lowers a parsed DSL program to a named-axis dataflow graph;
``Interpreter`` executes graphs functionally with NumPy; ``scalarize``
unrolls small graphs to the scalar form consumed by Algorithm 1 and the
cycle simulator.
"""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .interpreter import Interpreter as Interpreter
