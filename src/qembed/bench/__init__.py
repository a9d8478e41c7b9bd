"""Benchmark harness: config, runner, reporting and the qembed CLI.

Each name is imported from the submodule that defines it: `config`,
`data`, `runner`, `report` or `cli`.
"""
