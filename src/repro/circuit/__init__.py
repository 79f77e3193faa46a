"""CoSMIC circuit layer: the Constructor and microcode encoding."""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .constructor import construct as construct
from .testbench import generate_testbench as generate_testbench
