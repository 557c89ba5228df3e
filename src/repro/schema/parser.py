"""Parsing task descriptions: dicts, JSON, and a YAML subset.

Task files are written by users in a YAML-like format (the cluster's
``task.yaml``); this module ships a dependency-free parser for the subset
the schema needs — nested mappings by indentation, lists with ``- `` items
(scalars or inline mappings), scalar typing (int/float/bool/null/strings,
quoted or bare), and ``#`` comments.  Anything outside the subset raises
:class:`~repro.errors.SchemaError` with a line number.

:func:`spec_from_dict` turns the parsed (or JSON-loaded) mapping into a
validated :class:`~repro.schema.taskspec.TaskSpec`, rejecting unknown keys
so typos fail loudly rather than silently using defaults.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from ..errors import SchemaError
from .taskspec import EnvironmentSpec, FileSpec, QosSpec, ResourceSpec, TaskSpec
from .workflow import ArtifactSpec, StageSpec, WorkflowSpec

# --------------------------------------------------------------------------
# YAML-subset parsing
# --------------------------------------------------------------------------


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("null", "~", ""):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _strip_comment(line: str) -> str:
    """Remove a trailing comment, respecting simple quoting."""
    in_single = in_double = False
    for index, char in enumerate(line):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == "#" and not in_single and not in_double:
            return line[:index]
    return line


class _Lines:
    """Cursor over (indent, content, line_number) of significant lines."""

    def __init__(self, text: str) -> None:
        self.items: list[tuple[int, str, int]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            if "\t" in raw[: len(raw) - len(raw.lstrip())]:
                raise SchemaError(f"line {number}: tabs are not allowed in indentation")
            stripped = _strip_comment(raw).rstrip()
            if not stripped.strip():
                continue
            indent = len(stripped) - len(stripped.lstrip())
            self.items.append((indent, stripped.strip(), number))
        self.position = 0

    def peek(self) -> tuple[int, str, int] | None:
        return self.items[self.position] if self.position < len(self.items) else None

    def next(self) -> tuple[int, str, int]:
        item = self.items[self.position]
        self.position += 1
        return item


def _parse_block(lines: _Lines, indent: int) -> Any:
    """Parse the block starting at *indent*: mapping or list."""
    entry = lines.peek()
    assert entry is not None
    if entry[1].startswith("- "):
        return _parse_list(lines, indent)
    return _parse_mapping(lines, indent)


def _parse_mapping(lines: _Lines, indent: int) -> dict[str, Any]:
    result: dict[str, Any] = {}
    while True:
        entry = lines.peek()
        if entry is None or entry[0] < indent:
            return result
        line_indent, content, number = entry
        if line_indent != indent:
            raise SchemaError(f"line {number}: unexpected indentation")
        if content.startswith("- "):
            raise SchemaError(f"line {number}: list item where a key was expected")
        if ":" not in content:
            raise SchemaError(f"line {number}: expected 'key: value'")
        lines.next()
        key, _colon, remainder = content.partition(":")
        key = key.strip()
        if not key:
            raise SchemaError(f"line {number}: empty key")
        if key in result:
            raise SchemaError(f"line {number}: duplicate key {key!r}")
        remainder = remainder.strip()
        if remainder:
            result[key] = _parse_scalar(remainder)
            continue
        child = lines.peek()
        if child is None or child[0] <= indent:
            result[key] = None
        else:
            result[key] = _parse_block(lines, child[0])


def _parse_list(lines: _Lines, indent: int) -> list[Any]:
    result: list[Any] = []
    while True:
        entry = lines.peek()
        if entry is None or entry[0] < indent:
            return result
        line_indent, content, number = entry
        if line_indent != indent or not content.startswith("- "):
            raise SchemaError(f"line {number}: expected a '- ' list item")
        lines.next()
        body = content[2:].strip()
        if ":" in body and not (body.startswith('"') or body.startswith("'")):
            # Inline mapping item: '- key: value'; following deeper lines
            # extend the same mapping.
            key, _colon, remainder = body.partition(":")
            item = {key.strip(): _parse_scalar(remainder)}
            child = lines.peek()
            if child is not None and child[0] > indent:
                item.update(_parse_mapping(lines, child[0]))
            result.append(item)
        else:
            result.append(_parse_scalar(body))


def parse_yaml_subset(text: str) -> Any:
    """Parse the YAML subset; top level must be a mapping or a list."""
    lines = _Lines(text)
    if lines.peek() is None:
        return {}
    return _parse_block(lines, lines.peek()[0])


def _emit_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    needs_quoting = (
        text == ""
        or text != text.strip()
        or any(ch in text for ch in ":#'\"\n")
        or text.lower() in ("null", "true", "false", "~")
        or text.startswith("- ")
        or _looks_numeric(text)
    )
    if needs_quoting:
        return '"' + text.replace('"', "'") + '"'
    return text


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def dump_yaml_subset(data: Any, indent: int = 0) -> str:
    """Emit a mapping/list/scalar tree in the YAML subset this module parses.

    The emitter is the parser's inverse on the supported value domain
    (mappings, lists, str/int/float/bool/None), which the property tests
    assert: ``parse(dump(x)) == x``.
    """
    pad = " " * indent
    if isinstance(data, dict):
        if not data:
            raise SchemaError("cannot emit an empty mapping in the YAML subset")
        lines = []
        for key, value in data.items():
            key_text = str(key)
            if not key_text or key_text != key_text.strip() or ":" in key_text or "#" in key_text:
                raise SchemaError(f"key {key!r} is not representable in the YAML subset")
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key_text}:")
                lines.append(dump_yaml_subset(value, indent + 2))
            elif isinstance(value, (dict, list)):
                raise SchemaError(f"key {key!r}: empty containers are not representable")
            else:
                lines.append(f"{pad}{key_text}: {_emit_scalar(value)}")
        return "\n".join(lines)
    if isinstance(data, list):
        if not data:
            raise SchemaError("cannot emit an empty list in the YAML subset")
        lines = []
        for item in data:
            if isinstance(item, dict):
                if not item:
                    raise SchemaError("empty mapping list item is not representable")
                first_key, *rest_keys = item.keys()
                lines.append(f"{pad}- {first_key}: {_emit_scalar(item[first_key])}")
                for key in rest_keys:
                    value = item[key]
                    if isinstance(value, (dict, list)):
                        raise SchemaError(
                            "nested containers inside list items are not representable"
                        )
                    lines.append(f"{pad}  {key}: {_emit_scalar(value)}")
            elif isinstance(item, list):
                raise SchemaError("nested lists are not representable in the YAML subset")
            else:
                lines.append(f"{pad}- {_emit_scalar(item)}")
        return "\n".join(lines)
    return f"{pad}{_emit_scalar(data)}"


def spec_to_yaml(spec: TaskSpec) -> str:
    """Render a :class:`TaskSpec` as a task.yaml document."""
    data = spec.to_dict()

    def prune(value: Any) -> Any:
        if isinstance(value, dict):
            cleaned = {k: prune(v) for k, v in value.items()}
            return {k: v for k, v in cleaned.items() if v not in (None, "", [], {}, ())}
        if isinstance(value, (list, tuple)):
            return [prune(v) for v in value]
        return value

    return dump_yaml_subset(prune(data)) + "\n"


# --------------------------------------------------------------------------
# Dict → TaskSpec
# --------------------------------------------------------------------------

_TOP_KEYS = {
    "name",
    "entrypoint",
    "code_files",
    "datasets",
    "environment",
    "resources",
    "qos",
    "model",
    "runtime",
    "cluster",
}
_RESOURCE_NUMBERS: dict[str, type[int] | type[float]] = {
    "num_gpus": int,
    "gpus_per_node": int,
    "cpus_per_gpu": int,
    "memory_gb_per_gpu": float,
    "walltime_hours": float,
}


def _check_keys(data: dict[str, Any], allowed: set[str], context: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"{context}: unknown keys {sorted(unknown)}")


def _mapping(value: Any, context: str) -> dict[str, Any]:
    """A section that must be a mapping; absent (null) reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _number(value: Any, kind: type[int] | type[float], context: str) -> Any:
    """Coerce a numeric field to a finite *kind* (``int`` or ``float``).

    Numbers and numeric strings are accepted; bools, containers, nulls,
    non-finite numbers and (for ``int``) fractions raise :class:`SchemaError`.
    """
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        if kind is int and isinstance(value, int):
            return value
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number) and (kind is float or number.is_integer()):
                return kind(number)
    expected = "an integer" if kind is int else "a number"
    raise SchemaError(f"{context} must be {expected}, got {value!r}")


def _typed(value: Any, kind: type, context: str) -> Any:
    """A field that must be a *kind* (``str``, ``bool``), or null when absent."""
    if value is None or isinstance(value, kind):
        return value
    raise SchemaError(f"{context} must be a {kind.__name__}, got {value!r}")


def _files_from(items: Any, context: str) -> tuple[FileSpec, ...]:
    if items is None:
        return ()
    if not isinstance(items, list):
        raise SchemaError(f"{context} must be a list of file entries")
    files = []
    for item in items:
        if not isinstance(item, dict):
            raise SchemaError(f"{context}: each file needs path/size_bytes/sha256")
        _check_keys(item, {"path", "size_bytes", "sha256"}, context)
        try:
            files.append(
                FileSpec(
                    path=str(item["path"]),
                    size_bytes=_number(item["size_bytes"], int, f"{context}.size_bytes"),
                    sha256=str(item["sha256"]),
                )
            )
        except KeyError as exc:
            raise SchemaError(f"{context}: missing file field {exc}") from exc
    return tuple(files)


def spec_from_dict(data: dict[str, Any]) -> TaskSpec:
    """Build a validated :class:`TaskSpec` from a parsed mapping."""
    if not isinstance(data, dict):
        raise SchemaError(f"task description must be a mapping, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS, "task")
    for required in ("name", "entrypoint"):
        if required not in data or data[required] in (None, ""):
            raise SchemaError(f"task: missing required field {required!r}")

    env_data = _mapping(data.get("environment"), "environment")
    _check_keys(env_data, {"image", "python_version", "pip_packages", "env_vars"}, "environment")
    pip = env_data.get("pip_packages") or []
    if not isinstance(pip, list):
        raise SchemaError("environment.pip_packages must be a list")
    environment = EnvironmentSpec(
        image=str(env_data.get("image") or ""),
        python_version=str(env_data.get("python_version") or "3.10"),
        pip_packages=tuple(str(p) for p in pip),
        env_vars={
            str(k): str(v)
            for k, v in _mapping(env_data.get("env_vars"), "environment.env_vars").items()
        },
    )

    res_data = _mapping(data.get("resources"), "resources")
    _check_keys(res_data, {*_RESOURCE_NUMBERS, "gpu_type", "partition", "rdma"}, "resources")
    resources = ResourceSpec(
        gpu_type=_typed(res_data.get("gpu_type"), str, "resources.gpu_type"),
        partition=_typed(res_data.get("partition"), str, "resources.partition"),
        rdma=bool(_typed(res_data.get("rdma"), bool, "resources.rdma")),
        **{  # unset or null numbers keep ResourceSpec's defaults
            key: _number(res_data[key], kind, f"resources.{key}")
            for key, kind in _RESOURCE_NUMBERS.items()
            if res_data.get(key) is not None
        },
    )

    qos_data = _mapping(data.get("qos"), "qos")
    _check_keys(qos_data, {"tier", "preemptible"}, "qos")
    qos = QosSpec(
        tier=str(qos_data.get("tier", "guaranteed")),
        preemptible=_typed(qos_data.get("preemptible"), bool, "qos.preemptible"),
    )

    return TaskSpec(
        name=str(data["name"]),
        entrypoint=str(data["entrypoint"]),
        code_files=_files_from(data.get("code_files"), "code_files"),
        datasets=_files_from(data.get("datasets"), "datasets"),
        environment=environment,
        resources=resources,
        qos=qos,
        model=str(data.get("model") or ""),
        runtime=_typed(data.get("runtime"), str, "runtime"),
        cluster=_typed(data.get("cluster"), str, "cluster"),
    )


def _load_document(text: str, kind: str) -> Any:
    """Load a *kind* description: JSON when it opens with ``{``, else the YAML subset."""
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON {kind} description: {exc}") from exc
    return parse_yaml_subset(text)


def parse_task_text(text: str) -> TaskSpec:
    """Parse a task description from JSON or the YAML subset."""
    return spec_from_dict(_load_document(text, "task"))


def parse_task_file(path: str | Path) -> TaskSpec:
    """Parse a ``task.yaml`` / ``task.json`` file into a :class:`TaskSpec`."""
    return parse_task_text(Path(path).read_text())


# --------------------------------------------------------------------------
# Dict → WorkflowSpec
# --------------------------------------------------------------------------

_WORKFLOW_KEYS = {"workflow", "stages", "artifacts"}
_STAGE_ONLY_KEYS = {"depends_on", "consumes"}


def _names_from(items: Any, context: str) -> tuple[str, ...]:
    if items is None:
        return ()
    if not isinstance(items, list):
        raise SchemaError(f"{context} must be a list of names")
    return tuple(str(item) for item in items)


def workflow_from_dict(data: dict[str, Any]) -> WorkflowSpec:
    """Build a validated :class:`WorkflowSpec` from a parsed mapping.

    The document shape extends the ``task.yaml`` subset: a top-level
    ``workflow: <name>``, a ``stages`` list whose items are full task
    mappings plus optional ``depends_on``/``consumes`` name lists, and an
    optional ``artifacts`` list of ``{name, producer, size_bytes}``.
    """
    if not isinstance(data, dict):
        raise SchemaError(
            f"workflow description must be a mapping, got {type(data).__name__}"
        )
    _check_keys(data, _WORKFLOW_KEYS, "workflow")
    if data.get("workflow") in (None, ""):
        raise SchemaError("workflow: missing required field 'workflow' (the name)")
    stage_items = data.get("stages")
    if not isinstance(stage_items, list) or not stage_items:
        raise SchemaError("workflow: 'stages' must be a non-empty list")

    stages = []
    for item in stage_items:
        if not isinstance(item, dict):
            raise SchemaError("workflow: each stage must be a task mapping")
        _check_keys(item, _TOP_KEYS | _STAGE_ONLY_KEYS, "stage")
        task_data = {k: v for k, v in item.items() if k not in _STAGE_ONLY_KEYS}
        stages.append(
            StageSpec(
                task=spec_from_dict(task_data),
                depends_on=_names_from(item.get("depends_on"), "stage.depends_on"),
                consumes=_names_from(item.get("consumes"), "stage.consumes"),
            )
        )

    artifact_items = data.get("artifacts") or []
    if not isinstance(artifact_items, list):
        raise SchemaError("workflow: 'artifacts' must be a list")
    artifacts = []
    for item in artifact_items:
        if not isinstance(item, dict):
            raise SchemaError("workflow: each artifact needs name/producer/size_bytes")
        _check_keys(item, {"name", "producer", "size_bytes"}, "artifact")
        try:
            artifacts.append(
                ArtifactSpec(
                    name=str(item["name"]),
                    producer=str(item["producer"]),
                    size_bytes=_number(item["size_bytes"], int, "artifact.size_bytes"),
                )
            )
        except KeyError as exc:
            raise SchemaError(f"artifact: missing field {exc}") from exc

    return WorkflowSpec(
        name=str(data["workflow"]),
        stages=tuple(stages),
        artifacts=tuple(artifacts),
    )


def parse_workflow_text(text: str) -> WorkflowSpec:
    """Parse a workflow description from JSON or the YAML subset."""
    return workflow_from_dict(_load_document(text, "workflow"))


def parse_workflow_file(path: str | Path) -> WorkflowSpec:
    """Parse a ``workflow.yaml`` / ``.json`` file into a :class:`WorkflowSpec`."""
    return parse_workflow_text(Path(path).read_text())
