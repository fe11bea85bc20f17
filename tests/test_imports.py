import os
import subprocess
import sys

import pytest

import cyldet
import cyldet.losses

LOSS_NAMES = (
    "IndexOutOfRange",
    "LossBreakdown",
    "LossConfig",
    "brn_loss",
    "brn_loss_gradients",
    "cross_entropy",
    "huber",
    "rpn_loss",
    "rpn_loss_gradients",
)


def loaded_after_import(module, prefix):
    """The sorted names under prefix in sys.modules of a fresh interpreter
    after import module."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cyldet.__file__)))
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules "
            f"if (m + '.').startswith({prefix!r} + '.')))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("module", ["cyldet", "cyldet.cli", "cyldet.losses"])
def test_import_loads_no_scipy(module):
    # numpy is the one runtime dependency; scipy is only the tests'
    # reference for the sigmoid, logit and logsumexp
    assert loaded_after_import(module, "scipy") == "[]"


@pytest.mark.parametrize("module", ["cyldet", "cyldet.cli"])
def test_import_loads_no_numpy_ma(module):
    # np.unique(..., axis=0) imports numpy.ma, 20-25 ms of every CLI start
    assert loaded_after_import(module, "numpy.ma") == "[]"


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_loss_names_resolve_from_the_package(name):
    # imported like every other name, not loaded on first access
    assert vars(cyldet)[name] is getattr(cyldet.losses, name)


def test_from_import_of_a_loss_name():
    from cyldet import rpn_loss

    assert rpn_loss is cyldet.losses.rpn_loss


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyldet.no_such_name  # noqa: B018
    assert not hasattr(cyldet, "no_such_name")


def test_every_exported_failure_is_data():
    # a pose that cannot be solved was a RuntimeError, which a caller that
    # drops data errors (any ValueError) let through.  MissingFile is a
    # FileNotFoundError; IndexOutOfRange is an IndexError, since a target
    # index outside the logits is a caller's wiring error, as an arity
    # mismatch is in the codecs
    failures = {name: value for name, value in vars(cyldet).items()
                if isinstance(value, type) and issubclass(value, Exception)
                and name not in ("MissingFile", "IndexOutOfRange")}
    assert {"NoFeasibleConfiguration", "SingularSystem", "KittiFormatError",
            "NanLogits", "EmptyCloud"} <= set(failures)
    assert [name for name, cls in failures.items()
            if not issubclass(cls, ValueError)] == []
