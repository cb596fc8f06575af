"""Test helper: write aligned tuples as a table file.

The writer takes code columns (what ``Relation.encoded_columns`` caches and
what a reader hands back); tests start from tuples.  A column whose values
all hash is dictionary-coded in first-seen order, any other is written raw.
"""

from repro.relation.encoding import code_buffer
from repro.storage.format import DEFAULT_BLOCK_SIZE, column_blocks, write_table_file


def table_columns(attributes, tuples):
    """``(dictionary pages, whole columns)`` of aligned tuples."""
    pages, columns = [], []
    for position in range(len(attributes)):
        values = [row[position] for row in tuples]
        try:
            dictionary = list(dict.fromkeys(values))
        except TypeError:  # an unhashable value: no dictionary, raw pages
            pages.append(None)
            columns.append(values)
            continue
        code_of = {value: code for code, value in enumerate(dictionary)}
        pages.append(dictionary)
        columns.append(code_buffer(map(code_of.__getitem__, values), len(values)))
    return pages, columns


def write_tuples(path, table, attributes, tuples, block_size=DEFAULT_BLOCK_SIZE, **options):
    pages, columns = table_columns(attributes, tuples)
    return write_table_file(
        path,
        table,
        attributes,
        pages,
        column_blocks(columns, block_size),
        block_size=block_size,
        **options,
    )
