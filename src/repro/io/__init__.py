"""Task and result (de)serialisation.

* :mod:`repro.io.json_io` -- JSON format for tasks and task sets;
* :mod:`repro.io.dot` -- Graphviz DOT export (with transformation
  highlighting) and import.
"""

from .dot import load_dot, save_dot, task_from_dot, task_to_dot, transformed_to_dot
from .json_io import (
    TaskDocument,
    build_task,
    decode_task,
    load_task,
    load_taskset,
    save_task,
    save_taskset,
    task_from_dict,
    task_from_json,
    task_to_dict,
    task_to_json,
    taskset_from_dict,
    taskset_to_dict,
)

__all__ = [
    "TaskDocument",
    "decode_task",
    "build_task",
    "task_to_dict",
    "task_from_dict",
    "task_to_json",
    "task_from_json",
    "save_task",
    "load_task",
    "taskset_to_dict",
    "taskset_from_dict",
    "save_taskset",
    "load_taskset",
    "task_to_dot",
    "transformed_to_dot",
    "task_from_dot",
    "save_dot",
    "load_dot",
]
