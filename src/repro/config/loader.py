"""Parse and validate policy config documents into config sets.

Three input formats, one output: a validated
:class:`~repro.config.configset.ConfigSet`.

* **JSON** (``.json``) — the structured schema below;
* **YAML subset** (``.yaml`` / ``.yml``) — the same schema through a
  built-in indentation parser (the repo is stdlib-only, so this is a
  deliberately small subset: mappings, lists, scalars, inline lists,
  and ``|`` block literals — enough for policy documents, not a YAML
  implementation);
* **DSL** (``.rbac``) — the policy language itself, wrapped as
  ``{"policy": <text>}``.

The structured schema covers the core RBAC surface plus the simple
constraint descriptors::

    version: 2          # monotone config version id (required in-file
    name: hq            # for yaml/json; .rbac files take it externally)
    roles:              # - name / - {name, max_active_users}
    users:              # - name / - {name, max_active_roles}
    hierarchy:          # - {senior, junior}
    ssd: / dsd:         # - {name, roles: [...], cardinality}
    permissions:        # - {operation, object}
    grants:             # - {role, operation, object, scope?}
    assignments:        # - {user, role, scope?}
    scopes:             # - {name, parent?} (parents first)
    federation_maps:    # - {home_role, host_domain, host_role}
    durations:          # - {role, delta, user?}
    prerequisites:      # - {role, prerequisite}
    post_conditions:    # - {trigger_role, required_role}
    transactions:       # - {dependent_role, anchor_role}
    policy: |           # DSL escape hatch for everything else
        ...             # (exclusive with the structured policy keys)

Whatever the format, the document is parsed into a
:class:`~repro.policy.spec.PolicySpec`, validated with the standard
policy validator, and canonicalised (re-rendered as DSL + checksummed)
— so equivalent YAML, JSON and DSL inputs produce byte-identical
deployment artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.config.configset import ConfigSet
from repro.errors import ReproError
from repro.policy.spec import DESCRIPTOR_OPS, PolicySpec

__all__ = ["ConfigError", "MissingConfigVersion", "load_config",
           "parse_config", "spec_from_document"]


class ConfigError(ReproError):
    """A config document that cannot be parsed or validated."""


class MissingConfigVersion(ConfigError):
    """A config document with no ``version`` key and no explicit
    version: raw DSL, which only gets a version when one is assigned."""


# ==========================================================================
# YAML subset parser (stdlib-only; see module docstring for the subset)
# ==========================================================================


def _scalar(text: str) -> Any:
    text = text.strip()
    if not text or text in ("~", "null"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if (len(text) >= 2 and text[0] == text[-1] and text[0] in "'\""):
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_scalar(item) for item in inner.split(",")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _yaml_lines(text: str) -> list[tuple[int, str, int]]:
    """(indent, content, line_number) for every significant line."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise ConfigError(f"line {number}: tabs in indentation")
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((len(raw) - len(raw.lstrip(" ")), stripped, number))
    return out


class _YamlParser:
    def __init__(self, text: str) -> None:
        self.lines = _yaml_lines(text)
        self.raw = text.splitlines()
        self.pos = 0

    def parse(self) -> Any:
        if not self.lines:
            return {}
        value = self._block(self.lines[0][0])
        if self.pos < len(self.lines):
            indent, content, number = self.lines[self.pos]
            raise ConfigError(f"line {number}: unexpected {content!r}")
        return value

    def _block(self, indent: int) -> Any:
        _, content, _ = self.lines[self.pos]
        if content.startswith("- ") or content == "-":
            return self._list(indent)
        return self._mapping(indent)

    def _mapping(self, indent: int) -> dict[str, Any]:
        result: dict[str, Any] = {}
        while self.pos < len(self.lines):
            line_indent, content, number = self.lines[self.pos]
            if line_indent < indent:
                break
            if line_indent > indent or content.startswith("- "):
                raise ConfigError(
                    f"line {number}: bad indentation for {content!r}")
            key, sep, rest = content.partition(":")
            if not sep:
                raise ConfigError(f"line {number}: expected 'key: value',"
                                  f" got {content!r}")
            key = _scalar(key)
            rest = rest.strip()
            self.pos += 1
            if rest == "|":
                result[key] = self._literal(number, indent)
            elif rest:
                result[key] = _scalar(rest)
            elif (self.pos < len(self.lines)
                    and self.lines[self.pos][0] > indent):
                result[key] = self._block(self.lines[self.pos][0])
            else:
                result[key] = None
        return result

    def _list(self, indent: int) -> list[Any]:
        result: list[Any] = []
        while self.pos < len(self.lines):
            line_indent, content, number = self.lines[self.pos]
            if line_indent != indent or not (
                    content == "-" or content.startswith("- ")):
                if line_indent >= indent:
                    raise ConfigError(
                        f"line {number}: expected list item, "
                        f"got {content!r}")
                break
            rest = content[1:].strip()
            self.pos += 1
            if not rest:
                # `-` introducing an indented block item
                if (self.pos < len(self.lines)
                        and self.lines[self.pos][0] > indent):
                    result.append(self._block(self.lines[self.pos][0]))
                else:
                    result.append(None)
            elif ":" in rest and not rest.startswith(("'", '"', "[")):
                # inline first key of a mapping item: re-parse the rest
                # as a mapping whose continuation lines indent past `- `
                item_indent = indent + 2
                self.lines.insert(self.pos, (item_indent, rest, number))
                result.append(self._mapping(item_indent))
            else:
                result.append(_scalar(rest))
        return result

    def _literal(self, number: int, indent: int) -> str:
        """``key: |`` block literal: every following raw line indented
        past the key, dedented by the first line's indent."""
        collected: list[str] = []
        base: int | None = None
        for raw in self.raw[number:]:
            stripped = raw.strip()
            line_indent = len(raw) - len(raw.lstrip(" "))
            if stripped and line_indent <= indent:
                break
            if base is None and stripped:
                base = line_indent
            collected.append(raw[base:] if base is not None
                             and len(raw) >= base else "")
        # significant lines inside the literal were consumed rawly;
        # skip them in the structured stream too
        consumed_past = number + len(collected)
        while (self.pos < len(self.lines)
                and self.lines[self.pos][2] <= consumed_past):
            self.pos += 1
        while collected and not collected[-1].strip():
            collected.pop()
        return "\n".join(collected) + ("\n" if collected else "")


def _parse_yaml(text: str) -> Any:
    return _YamlParser(text).parse()


# ==========================================================================
# document -> PolicySpec
# ==========================================================================

#: structured keys whose entries are rows of names: key -> the entry
#: fields, in the order the spec's row (or descriptor item) takes them
_NAME_ROWS = {
    "hierarchy": ("senior", "junior"),
    "federation_maps": ("home_role", "host_domain", "host_role"),
    "prerequisites": ("role", "prerequisite"),
    "post_conditions": ("trigger_role", "required_role"),
    "transactions": ("dependent_role", "anchor_role"),
}

_STRUCTURED_KEYS = ("roles", "users", "ssd", "dsd", "permissions", "grants",
                    "assignments", "scopes", "durations", *_NAME_ROWS)


def _named_entries(doc: Any, key: str) -> list[dict[str, Any]]:
    raw = doc.get(key) or []
    if not isinstance(raw, list):
        raise ConfigError(f"config key {key!r} must be a list")
    entries = []
    for item in raw:
        if isinstance(item, str):
            entries.append({"name": item})
        elif isinstance(item, dict):
            entries.append(item)
        else:
            raise ConfigError(f"{key!r} entries must be names or "
                              f"mappings, got {item!r}")
    return entries


def _require(entry: dict[str, Any], key: str, field: str) -> Any:
    try:
        return entry[field]
    except KeyError:
        raise ConfigError(
            f"{key!r} entry {entry!r} missing field {field!r}") from None


def spec_from_document(doc: dict[str, Any]) -> PolicySpec:
    """Build (and do not yet validate) a PolicySpec from a parsed
    structured document — or from its ``policy`` DSL escape hatch."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    dsl_text = doc.get("policy")
    if dsl_text is not None:
        clash = [key for key in _STRUCTURED_KEYS if doc.get(key)]
        if clash:
            raise ConfigError(
                f"config mixes a 'policy' DSL block with structured "
                f"keys {clash}; use one or the other")
        from repro.errors import PolicySyntaxError
        from repro.policy.dsl import parse_policy
        try:
            spec = parse_policy(str(dsl_text))
        except PolicySyntaxError as exc:
            raise ConfigError(f"embedded policy DSL: {exc}") from None
        if doc.get("name"):
            spec.name = str(doc["name"])
        return spec

    from repro.gtrbac.constraints import DurationConstraint

    # each name is stored as its first occurrence: the spec holds it once
    names: dict[str, str] = {}

    def name(value: Any) -> Any:
        return None if value is None else names.setdefault(
            str(value), str(value))

    spec = PolicySpec(name=str(doc.get("name", "policy")))
    for entry in _named_entries(doc, "roles"):
        spec.add_role(name(_require(entry, "roles", "name")),
                      entry.get("max_active_users"))
    for entry in _named_entries(doc, "users"):
        spec.add_user(name(_require(entry, "users", "name")),
                      entry.get("max_active_roles"))
    for family, adder in (("ssd", spec.add_ssd), ("dsd", spec.add_dsd)):
        for entry in _named_entries(doc, family):
            roles = _require(entry, family, "roles")
            if not isinstance(roles, list):
                raise ConfigError(f"{family!r} roles must be a list")
            adder(name(_require(entry, family, "name")),
                  {name(role) for role in roles},
                  int(entry.get("cardinality", 2)))
    for entry in _named_entries(doc, "permissions"):
        spec.apply(("add_permission",
                    name(_require(entry, "permissions", "operation")),
                    name(_require(entry, "permissions", "object"))))
    for entry in _named_entries(doc, "scopes"):
        spec.add_scope(name(_require(entry, "scopes", "name")),
                       name(entry.get("parent")))
    for entry in _named_entries(doc, "grants"):
        role = name(_require(entry, "grants", "role"))
        operation = name(_require(entry, "grants", "operation"))
        obj = name(_require(entry, "grants", "object"))
        scope = name(entry.get("scope"))
        if scope is None:
            spec.add_grant(role, operation, obj)
        else:
            spec.add_scoped_grant(role, operation, obj, scope)
    for entry in _named_entries(doc, "assignments"):
        user = name(_require(entry, "assignments", "user"))
        role = name(_require(entry, "assignments", "role"))
        scope = name(entry.get("scope"))
        if scope is None:
            spec.add_assignment(user, role)
        else:
            spec.add_scoped_assignment(user, role, scope)
    for entry in _named_entries(doc, "durations"):
        spec.durations.append(DurationConstraint(
            name(_require(entry, "durations", "role")),
            float(_require(entry, "durations", "delta")),
            name(entry.get("user"))))
    for key, row in _NAME_ROWS.items():
        make = (DESCRIPTOR_OPS[key].make if key in DESCRIPTOR_OPS
                else lambda *cells: cells)
        getattr(spec, key).extend(
            make(*(name(_require(entry, key, field)) for field in row))
            for entry in _named_entries(doc, key))
    return spec


# ==========================================================================
# entry points
# ==========================================================================


def parse_config(text: str, fmt: str = "yaml",
                 version: int | None = None,
                 origin: str = "inline",
                 name: str | None = None) -> ConfigSet:
    """Parse one config document into a validated ConfigSet.

    ``fmt`` is ``yaml``, ``json`` or ``rbac`` (raw DSL).  The version
    comes from the document's ``version`` key, overridable (and for
    raw DSL, suppliable) via the ``version`` argument.  ``name``, when
    given, replaces the policy name before canonicalisation: a served
    shard boots its policy under the shard name and stages every
    reload under the live policy's name, so an unchanged file keeps
    its checksum.
    """
    if fmt == "json":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from None
    elif fmt == "yaml":
        doc = _parse_yaml(text)
    elif fmt == "rbac":
        doc = {"policy": text}
    else:
        raise ConfigError(f"unknown config format {fmt!r}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    if version is None:
        version = doc.get("version")
    if version is None:
        raise MissingConfigVersion(
            "config document has no 'version' (and no explicit version "
            "was supplied)")
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise ConfigError(f"bad config version {version!r}") from None
    spec = spec_from_document(doc)
    if name is not None:
        spec.name = name
    from repro.policy.validator import validate_policy
    issues = validate_policy(spec)
    if issues:
        raise ConfigError(
            "config version %d failed validation: %s"
            % (version, "; ".join(str(issue) for issue in issues)))
    return ConfigSet.of(spec, version, origin=origin)


_FORMATS = {".json": "json", ".yaml": "yaml", ".yml": "yaml",
             ".rbac": "rbac"}


def load_config(path: str, version: int | None = None,
                name: str | None = None) -> ConfigSet:
    """Load a config file, format-dispatched on extension (unknown
    extensions sniff: ``{`` means JSON, a ``version:``/``policy:`` key
    means YAML, anything else is DSL)."""
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    fmt = _FORMATS.get(file.suffix.lower())
    if fmt is None:
        head = text.lstrip()[:1]
        if head == "{":
            fmt = "json"
        elif any(line.split(":", 1)[0].strip() in
                 ("version", "policy", "name", *_STRUCTURED_KEYS)
                 for line in text.splitlines() if ":" in line):
            fmt = "yaml"
        else:
            fmt = "rbac"
    return parse_config(text, fmt, version=version, origin=str(path),
                        name=name)
