"""Exception hierarchy shared by all fairmlp modules, and the check of a
config's fields against their annotations.

The CLI maps these onto process exit codes: ParameterError and I/O
problems -> 2, SchemaError/DataError/DegenerateBatchError -> 3,
NumericError -> 4.
"""

import types
from dataclasses import fields
from typing import Union, get_args, get_origin, get_type_hints


class FairmlpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FairmlpError):
    """Array dimensions or sequence lengths do not match."""


class ParameterError(FairmlpError):
    """A scalar argument is outside its valid range."""


class DegenerateBatchError(FairmlpError):
    """A batch is missing a sensitive group or a label class required
    by the requested constraint or loss."""


class DataError(FairmlpError):
    """A dataset-level problem: missing group/class, insufficient
    stratification cells, batch size larger than the dataset."""


class SchemaError(FairmlpError):
    """CSV header, schema file, or checkpoint dimensions are inconsistent
    with what was requested."""


class NumericError(FairmlpError):
    """A non-finite value (NaN/Inf) would escape a public operation."""


def has_type(value, hint) -> bool:
    """Whether ``value`` is of type ``hint``: an int is not a bool, a float
    accepts an int but not a bool, and a list checks every entry."""
    if get_origin(hint) in (Union, types.UnionType):
        return any(has_type(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        (entry,) = get_args(hint)
        return isinstance(value, list) and all(has_type(v, entry)
                                               for v in value)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool
                                        or not isinstance(value, bool))


def check_types(config, error: type[FairmlpError]) -> None:
    """Raise ``error`` naming the first field of the dataclass ``config``
    whose value is not of its annotated type."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not has_type(value, hints[f.name]):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
