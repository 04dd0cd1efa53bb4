"""Kube-Knots repository benchmark (see README.md)."""
