"""The artifact writers as they were before each distinct float was spelled once.

`csv_text` joins each CSV row from the repr of its Python values, one row
at a time. `records_json` builds every record of a candidates.json file
as a dict and lays the list out with json.dumps. The tests that compare
the runner's writers with these check that spelling each distinct float
bit pattern once and joining each file once changes no byte.
"""

import json

import numpy as np


def csv_text(header, columns):
    """The text of a CSV with this header over these array columns."""
    lines = [",".join(header)]
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _values(column):
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def records_json(states):
    """json.dumps of the records of states, each a dict of columns as runner._records_json takes them."""
    records = []
    for columns in states:
        plain = {key: _values(column) for key, column in columns.items() if key != "candidates"}
        slots = [{field: _values(column) for field, column in slot.items()} for slot in columns["candidates"]]
        for i in range(len(next(iter(plain.values())))):
            record = {key: column[i] for key, column in plain.items()}
            record["candidates"] = [{field: column[i] for field, column in slot.items()} for slot in slots]
            records.append(record)
    return json.dumps(records, indent=2, sort_keys=True) + "\n"
