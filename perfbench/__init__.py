"""PermDNN reproduction benchmark: host and simulated clocks, end to end and per layer."""
