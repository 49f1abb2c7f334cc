from repro.experiments.suite import run_suite


def run_experiment(name, config, *, jobs=1):
    """Run one experiment through the suite, as ``repro <name>`` does;
    returns its FigureResult (which may carry per-cell failures)."""
    results, errors = run_suite([name], config, jobs=jobs)
    assert not errors, errors
    return results[name]
