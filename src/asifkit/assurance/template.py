"""Access to the shipped functional-safety argument template."""

from importlib import resources


def template_text() -> str:
    """The shipped GSN-lite functional-safety argument, as text."""
    return (
        resources.files(__package__)
        .joinpath("data/functional_safety.gsn")
        .read_text(encoding="utf-8")
    )
