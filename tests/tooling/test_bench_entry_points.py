"""Every engine name the end-to-end benchmark (``bench/``) reads resolves.

``bench/layers.py`` reaches into the engine by ``module:attribute`` strings.
Deleting or renaming one of those names turns its metrics to null, which
the tiny-scale self-check notices only after running every workload; this
catches it in a second.
"""

import warnings

import pytest

from bench import layers


def test_every_layer_metric_entry_point_resolves():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert layers.unavailable_metrics() == set()


@pytest.mark.parametrize("key", sorted(layers.Replay._ENTRIES))
def test_every_replay_entry_resolves(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert layers.resolve(layers.Replay._ENTRIES[key]) is not None
