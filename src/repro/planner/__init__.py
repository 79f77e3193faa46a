"""CoSMIC architecture layer: the Planner and its estimation tool."""
