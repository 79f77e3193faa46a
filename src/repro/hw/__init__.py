"""CoSMIC template architecture: chip specs, PEs, and cycle simulators."""
