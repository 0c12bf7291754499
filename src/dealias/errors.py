"""Exception types raised for bad input data, and the line lookup their
messages use."""


class DealiasError(ValueError):
    """Base class for input-data errors."""


class AliasFileError(DealiasError):
    """Malformed alias record file (bad header, wrong field count, duplicate id)."""


class PartitionFileError(DealiasError):
    """Malformed partition file."""


class StopWordFileError(DealiasError):
    """Unreadable stop-word list."""


class EmptyClusterError(DealiasError):
    """A partition given as clusters has a cluster with no members."""


class DuplicateAliasIdError(DealiasError):
    """Two alias records share the same id."""


class UniverseMismatchError(DealiasError):
    """Two partitions that should cover the same alias ids do not."""


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8.

    Lines are decoded one at a time: no byte of a multi-byte UTF-8
    sequence is a line break, so a line decodes on its own exactly when it
    decodes inside the whole file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return 1  # not reached for a file the text reader rejected
