"""The CoSMIC facade: full-stack compilation and scale-out systems."""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .stack import CosmicStack as CosmicStack
from .system import platform_for as platform_for
