"""Error codes: each class's --error-json payload names it."""

import inspect

import pytest

from releval import errors
from releval.errors import DatasetValidationError, RecordError, RelevalError

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, RelevalError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_payload_code_is_the_class_name(cls):
    # the base classes are "Error": a malformed line is a bare RecordError
    err = cls([]) if cls is DatasetValidationError else cls("message")
    expected = "Error" if cls in (RelevalError, RecordError) else cls.__name__
    assert err.payload()["error"] == err.code == expected


def test_every_error_class_is_checked():
    # the base class, RecordError and the 22 errors named for themselves
    assert len(CLASSES) == 24
