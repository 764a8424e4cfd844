"""Every package error survives pickling with its message and attributes.

A caller that runs clustergen in a process pool gets each worker's error
back pickled; an error that fails to unpickle breaks the pool.
"""

import pickle

import pytest

from clustergen import errors

INSTANCES = [
    errors.ClustergenError("base"),
    errors.ArchetypeValidationError(["a bad", "b bad"]),
    errors.NonConvergenceError(1.0, [2.0, 1.0]),
    errors.NLError("nl"),
    errors.NLAuthError("no key"),
    errors.NLNetworkError("down"),
    errors.NLRateLimitError("rate limited", ["429", "429"]),
    errors.NLParseError("no JSON object found", "raw text"),
    errors.NLValidationError(["n_clusters must be positive"], "raw text"),
]


def test_every_error_class_is_covered():
    defined = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.ClustergenError)
    }
    assert {type(e) for e in INSTANCES} == defined


@pytest.mark.parametrize("error", INSTANCES, ids=[type(e).__name__ for e in INSTANCES])
def test_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
