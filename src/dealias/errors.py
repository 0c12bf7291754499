"""Exception types raised for bad input data."""


class DealiasError(ValueError):
    """Base class for input-data errors."""


class AliasFileError(DealiasError):
    """Malformed alias record file (bad header, wrong field count, duplicate id)."""


class PartitionFileError(DealiasError):
    """Malformed partition file."""


class EmptyClusterError(DealiasError):
    """A partition given as clusters has a cluster with no members."""


class DuplicateAliasIdError(DealiasError):
    """Two alias records share the same id."""


class UniverseMismatchError(DealiasError):
    """Two partitions that should cover the same alias ids do not."""
