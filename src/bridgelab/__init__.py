"""bridgelab: bridge/SCAD/SELO penalized least squares with a Monte Carlo
harness for tail-probability, sparse-consistency, and limit-law checks."""
