"""The CLI's flag surface and the one rule that derives its engine specs.

Every spec-taking command (``run``, ``spec``, ``stream``, ``serve``,
``sweep``) resolves its document with precedence file < flags < ``--set``,
and a name flag over a saved spec follows
:func:`repro.api.specs.name_override`, the rule ``Session.pipeline`` uses.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.api import EngineSpec, ServerSpec, Session, SweepRunSpec
from repro.cli import build_parser, main

_HELP = {"-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS}
_SPEC = {"--spec": None, "--system": None, "--set": None}
_NAMES = {"--architecture": None, "--backend": None, "--scheme": None}

# Every option of every subcommand and its default.
SURFACE = {
    "list": {},
    "run": {**_SPEC, "--trace": False},
    "table2": {"--system": "paper"},
    "specs": {"--system": "paper"},
    "spec": {**_SPEC, **_NAMES, "--qformat": None, "--memory-budget": None,
             "--out": None},
    "stream": {**_SPEC, **_NAMES, "--scenario": "moving_point",
               "--frames": 8, "--dtype": None, "--qformat": None,
               "--batch": 1, "--memory-budget": None, "--trace": False,
               "--trace-out": None, "--metrics-out": None},
    "serve": {**_SPEC, **_NAMES, "--scenario": "moving_point",
              "--sessions": 4, "--frames": 4, "--workers": None,
              "--queue-capacity": None, "--policy": None,
              "--memory-budget": None, "--check": False,
              "--metrics-out": None},
    "sweep": {**_SPEC, **_NAMES, "--store": None, "--resume": None,
              "--no-resume": None, "--overwrite": False, "--check": False,
              "--trace": False, "--trace-out": None, "--metrics-out": None},
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def test_every_command_keeps_its_options_and_defaults():
    parsers = _subparsers()
    assert set(parsers) == set(SURFACE)
    for command, parser in parsers.items():
        options = {option: action.default for action in parser._actions
                   for option in action.option_strings}
        assert options == {**_HELP, **SURFACE[command]}, command


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert command in capsys.readouterr().out


def _printed(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_nested_precedence_is_file_then_flags_then_set(tmp_path, capsys):
    path = tmp_path / "server.json"
    path.write_text(ServerSpec(engine=EngineSpec(system="paper")).to_json())
    assert main(["serve", "--check", "--spec", str(path),
                 "--system", "small", "--set", "engine.system=tiny"]) == 0
    assert _printed(capsys)["engine"]["system"] == "tiny"
    assert main(["serve", "--check", "--spec", str(path),
                 "--system", "small"]) == 0
    assert _printed(capsys)["engine"]["system"] == "small"
    assert main(["serve", "--check", "--spec", str(path)]) == 0
    assert _printed(capsys)["engine"]["system"] == "paper"


# ------------------------------------------------- name flags over a spec
_TABLESTEER14 = {"system": "tiny", "architecture": "tablesteer",
                 "architecture_options": {"total_bits": 14}}
_PLANEWAVE3 = {"system": "tiny", "scheme": "planewave",
               "scheme_options": {"n_angles": 3}}
_DOCUMENTS = {"spec": lambda engine: engine,
              "serve": lambda engine: ServerSpec(engine=engine),
              "sweep": lambda engine: SweepRunSpec(engine=engine)}


def _resolve(tmp_path, capsys, command: str, engine: dict,
             *flags: str) -> tuple[EngineSpec, dict]:
    """The engine ``command`` resolves (and its printed document) from
    ``engine`` saved the way ``command`` saves it, under ``flags``."""
    path = tmp_path / f"{command}.json"
    path.write_text(_DOCUMENTS[command](EngineSpec(**engine)).to_json())
    argv = [command, "--spec", str(path), *flags]
    if command != "spec":
        argv.append("--check")
    assert main(argv) == 0, capsys.readouterr().err
    printed = _printed(capsys)
    document = printed if command == "spec" else printed["engine"]
    return EngineSpec.from_dict(document), document


@pytest.mark.parametrize("command, engine, name, value", [
    pytest.param("spec", _TABLESTEER14, "architecture", "tablefree",
                 id="spec-architecture"),
    pytest.param("spec", _PLANEWAVE3, "scheme", "diverging",
                 id="spec-scheme"),
    pytest.param("serve", _TABLESTEER14, "architecture", "tablefree",
                 id="serve-architecture"),
    pytest.param("sweep", _TABLESTEER14, "architecture", "exact",
                 id="sweep-architecture"),
])
def test_a_name_flag_drops_the_stale_options(tmp_path, capsys, command,
                                             engine, name, value):
    resolved, document = _resolve(tmp_path, capsys, command, engine,
                                  f"--{name}", value)
    assert document[name] == value
    assert document[f"{name}_options"] is None
    assert resolved == Session(EngineSpec(**engine))._variant(**{name: value})


def test_the_same_name_keeps_its_options(tmp_path, capsys):
    resolved, document = _resolve(tmp_path, capsys, "spec", _TABLESTEER14,
                                  "--architecture", "tablesteer")
    assert document["architecture_options"]["total_bits"] == 14
    assert resolved == EngineSpec(**_TABLESTEER14)


@pytest.mark.parametrize("command", ["spec", "serve"])
def test_set_after_a_name_flag_sets_the_new_names_options(tmp_path, capsys,
                                                          command):
    prefix = "" if command == "spec" else "engine."
    resolved, _ = _resolve(
        tmp_path, capsys, command, _TABLESTEER14, "--architecture",
        "tablefree", "--set", f"{prefix}architecture_options.delta=0.5")
    session = Session(EngineSpec(**_TABLESTEER14))
    assert resolved == session._variant(
        architecture="tablefree", architecture_options={"delta": 0.5})


@pytest.mark.parametrize("command", ["serve", "sweep"])
def test_a_spec_files_engine_must_be_an_object(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"engine": "tiny"}))
    assert main([command, "--check", "--spec", str(path)]) == 2
    assert "must be a JSON object, got str" in capsys.readouterr().err
