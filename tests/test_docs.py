"""README's Command line section and Module map name what the code declares."""
import argparse
import dataclasses
import re
from pathlib import Path

import shapenewton
from shapenewton import cli, driver

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_section() -> str:
    text = README.read_text()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_the_config_keys_in_order():
    match = re.search(r"keys match\s+`ExperimentConfig`\s+exactly\s+\(([^)]*)\)",
                      command_line_section())
    assert match is not None
    named = re.findall(r"`(\w+)`", match.group(1))
    assert named == [field.name for field in dataclasses.fields(driver.ExperimentConfig)]


def test_readme_names_exactly_the_declared_flags():
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    declared = {option for command in commands.choices.values()
                for action in command._actions for option in action.option_strings
                if option.startswith("--")} - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", command_line_section())) == declared


def test_module_map_names_every_module():
    section = README.read_text().split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    mapped = set(re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE))
    package = Path(shapenewton.__file__).resolve().parent
    assert mapped == {path.stem for path in package.glob("*.py")} - {"__init__"}
