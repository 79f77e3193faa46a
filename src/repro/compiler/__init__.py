"""CoSMIC compilation layer, part 2: mapping, scheduling, memory program."""
