"""Experiment harness regenerating every table and figure of Section 7,
plus ablation studies for the stack's design choices."""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .figures import EXPERIMENTS as EXPERIMENTS
