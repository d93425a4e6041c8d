"""Security-group inference and firewall rule synthesis from flow logs."""
