"""Pinned SQL translations: canonical tree, fingerprint, output schema, result.

Each text keeps the canonical tree, the fingerprint and the answer that the
translator gave when it still wrapped every table in a rename to
``alias.column`` and left canonicalization to strip those renames.  The
plan cache is keyed by the fingerprint, so a change here would split or
merge cache slots; the output schema is what ``db.sql(text).schema`` shows.
"""

import pytest

from repro.algebra.expressions import Rename
from repro.api import connect
from repro.errors import SQLTranslationError
from repro.relation.relation import Relation
from repro.sql import translate_sql
from repro.workloads import textbook_catalog

Q1 = "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"
Q3 = (
    "SELECT DISTINCT s_no, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS ("
    "SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS ("
    "SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))"
)

# (text, recognize_division, canonical to_text(), fingerprint, output schema, sorted rows)
PINS = [
    ("SELECT s_no FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no", True,
     "divide(supplies, project[p_no](select[color = 'blue'](parts)))",
     '731b23101a043cd6ae4e7bb323f968bcddbc6618517ed60bea35a7ab4fe7e614',
     ('s_no',),
     [('s1',), ('s2',)]),
    ("SELECT s_no FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no", False,
     "divide(supplies, project[p_no](select[color = 'blue'](parts)))",
     '731b23101a043cd6ae4e7bb323f968bcddbc6618517ed60bea35a7ab4fe7e614',
     ('s_no',),
     [('s1',), ('s2',)]),
    ('SELECT s_no FROM supplies AS s DIVIDE BY wanted AS w ON s.p_no = w.p_no', True,
     'divide(supplies, wanted)',
     'a6dcd342442207fdb185859f3467f29f02391b648403366efb68897f08f7fe56',
     ('s_no',),
     [('s1',)]),
    ('SELECT s_no FROM supplies DIVIDE BY wanted ON supplies.p_no = wanted.p_no', True,
     'divide(supplies, wanted)',
     'a6dcd342442207fdb185859f3467f29f02391b648403366efb68897f08f7fe56',
     ('s_no',),
     [('s1',)]),
    ("SELECT s.s_no AS who FROM supplies AS s DIVIDE BY (SELECT p_no AS part FROM parts WHERE color = 'red') AS p ON p.part = s.p_no", True,
     "rename[s_no->who](divide(supplies, project[p_no](select[color = 'red'](parts))))",
     'e6a5fb1e9277a1d19b7d85808c42934c8fadd2cac6bd4c3df51589bc9b051bd3',
     ('who',),
     [('s1',)]),
    ("SELECT s.s_no FROM supplies AS s DIVIDE BY (SELECT a.p_no FROM parts AS a, wanted AS w WHERE a.p_no = w.p_no AND a.color = 'blue') AS p ON s.p_no = p.p_no", True,
     "divide(supplies, project[p_no](select[(p_no = w.p_no AND color = 'blue')](product(parts, rename[p_no->w.p_no](wanted)))))",
     '551cb56778680fa45397456c3b5a802216a09ab9e2c4c561a09e011d0d605c11',
     ('s_no',),
     [('s1',), ('s2',)]),
    ('SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no', True,
     'great_divide(supplies, parts)',
     '160c87ddc86c43e7fefab363b1c7347711ce93bea8f800a8d6c1ce4249cfce3b',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ('SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no', False,
     'great_divide(supplies, parts)',
     '160c87ddc86c43e7fefab363b1c7347711ce93bea8f800a8d6c1ce4249cfce3b',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ('SELECT s.s_no AS who, p.color AS hue FROM supplies AS s DIVIDE BY parts AS p ON p.p_no = s.p_no', True,
     'rename[color->hue, s_no->who](great_divide(supplies, parts))',
     '16fa2ea0cd240420a543fc11d0c177c14fda9149c54ed0e07dbbf127124f732f',
     ('who', 'hue'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ('SELECT s_no, hue FROM supplies AS s DIVIDE BY (SELECT p_no AS part, color AS hue FROM parts) AS p ON s.p_no = p.part', True,
     'rename[color->hue](great_divide(supplies, parts))',
     '5d9443b458b4a0b26425affefa5685ff8df76ea8833f59c907ca6bddf076f2d2',
     ('s_no', 'hue'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ('SELECT * FROM supplies AS s DIVIDE BY (SELECT p_no, color AS s_no FROM parts) AS p ON s.p_no = p.p_no', True,
     'rename[color->p.s_no, s_no->s.s_no](great_divide(supplies, parts))',
     '05757c35263540173a9051356d1122f5b203ae1a8da8bb7e5377b940fdae3dc4',
     ('s.s_no', 'p.s_no'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ("SELECT who FROM (SELECT s_no AS who, p_no FROM supplies WHERE s_no <> 's3') AS s DIVIDE BY wanted AS w ON s.p_no = w.p_no", True,
     "rename[s_no->who](divide(select[s_no != 's3'](supplies), wanted))",
     '544c6b81e3a51393200dc854c9d64809dae6f2b4212955797fc91a03cc818e32',
     ('who',),
     [('s1',)]),
    ('SELECT s_no FROM (SELECT s_no, p_no AS q FROM supplies) AS s DIVIDE BY wanted AS w ON s.q = w.p_no', True,
     'divide(supplies, wanted)',
     'a6dcd342442207fdb185859f3467f29f02391b648403366efb68897f08f7fe56',
     ('s_no',),
     [('s1',)]),
    ("SELECT s_no, color FROM (SELECT s_no, p_no FROM supplies WHERE s_no >= 's2') AS s DIVIDE BY parts AS p ON s.p_no = p.p_no", True,
     "great_divide(select[s_no >= 's2'](supplies), parts)",
     'a9205c4ade9356e6481ccae27147936e9f298744d8d7909a2e4bd09c4882e1c8',
     ('s_no', 'color'),
     [('s2', 'blue'), ('s2', 'green')]),
    ('SELECT DISTINCT s_no, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))', True,
     'great_divide(supplies, parts)',
     '160c87ddc86c43e7fefab363b1c7347711ce93bea8f800a8d6c1ce4249cfce3b',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ('SELECT DISTINCT s_no, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))', False,
     'difference(product(project[s_no](supplies), project[color](parts)), project[s_no, color](difference(product(project[s_no](supplies), parts), join(supplies, parts))))',
     'fe6ba3440d13838bdc666cd107dd10757765b73482b41b56abfc4cb6c70e34f3',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ("SELECT DISTINCT s_no FROM supplies AS s1 WHERE NOT EXISTS (SELECT * FROM parts AS p2 WHERE p2.color = 'blue' AND NOT EXISTS (SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))", True,
     "divide(supplies, project[p_no](select[color = 'blue'](parts)))",
     '731b23101a043cd6ae4e7bb323f968bcddbc6618517ed60bea35a7ab4fe7e614',
     ('s_no',),
     [('s1',), ('s2',)]),
    ("SELECT DISTINCT s_no FROM supplies AS s1 WHERE NOT EXISTS (SELECT * FROM parts AS p2 WHERE p2.color = 'blue' AND NOT EXISTS (SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))", False,
     "difference(project[s_no](supplies), project[s_no](difference(product(project[s_no](supplies), project[p_no](select[color = 'blue'](parts))), supplies)))",
     '0da90b0cb9287302200a84b0aa8e6af6f8bc2e23f4000a974bab8c6447fd28f9',
     ('s_no',),
     [('s1',), ('s2',)]),
    ('SELECT s.s_no, p.color FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no', True,
     'project[s_no, color](select[p_no = p.p_no](product(supplies, rename[p_no->p.p_no](parts))))',
     '5597ab8db0660e2ff2c35575281913717bef0c551f2033942a5dcdc7f36ce4c9',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green'), ('s3', 'red')]),
    ("SELECT s_no, color FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no AND p.color = 'blue'", True,
     "project[s_no, color](select[(p_no = p.p_no AND color = 'blue')](product(supplies, rename[p_no->p.p_no](parts))))",
     'd49039be1888bbdd66c830b4b4213c2eb09b6f72f1228af787831b8a6f13ded5',
     ('s_no', 'color'),
     [('s1', 'blue'), ('s2', 'blue')]),
    ("SELECT p.p_no AS part FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no AND s.s_no = 's3'", True,
     "rename[p.p_no->part](project[p.p_no](select[(p_no = p.p_no AND s_no = 's3')](product(supplies, rename[p_no->p.p_no](parts)))))",
     '944875cf9d924479ffb3463740ade9c43f0dc26ce9160902f72e2357b195a9cc',
     ('part',),
     [('p3',)]),
    ('SELECT a.s_no, b.s_no AS other FROM supplies AS a, supplies AS b WHERE a.p_no = b.p_no AND a.s_no <> b.s_no', True,
     'rename[b.s_no->other](project[s_no, b.s_no](select[(p_no = b.p_no AND s_no != b.s_no)](product(supplies, rename[p_no->b.p_no, s_no->b.s_no](supplies)))))',
     '7815062dfc82564802627e4abb876c8175499c998ca6b565383b47687bed7773',
     ('s_no', 'other'),
     [('s1', 's2'), ('s1', 's3'), ('s2', 's1'), ('s3', 's1')]),
    ("SELECT b.p_no FROM supplies AS a, supplies AS b WHERE a.s_no = b.s_no AND a.p_no = 'p5'", True,
     "rename[b.p_no->p_no](project[b.p_no](select[(s_no = b.s_no AND p_no = 'p5')](product(supplies, rename[p_no->b.p_no, s_no->b.s_no](supplies)))))",
     'e04b428531e35a8071d95a6952599540f1613404690e97b76d32e8eaca0a2b38',
     ('p_no',),
     [('p1',), ('p2',), ('p5',)]),
    ('SELECT q.x, p.color FROM parts AS p, (SELECT p_no AS x FROM supplies) AS q WHERE q.x = p.p_no', True,
     'rename[q.x->x](project[q.x, color](select[q.x = p_no](product(parts, rename[p_no->q.x](project[p_no](supplies))))))',
     'ff3fd33745eae4ec5981c0451e05aa78883a54b8c00940f3db0fac64db1e95a0',
     ('x', 'color'),
     [('p1', 'blue'), ('p2', 'blue'), ('p3', 'red'), ('p4', 'red'), ('p5', 'green')]),
    ('SELECT * FROM supplies AS s', True,
     'rename[p_no->s.p_no, s_no->s.s_no](supplies)',
     'd7f8fe85f47cdd0c18c008770a5b76d1e4cf869ddea81848c06da443da691168',
     ('s.s_no', 's.p_no'),
     [('s1', 'p1'), ('s1', 'p2'), ('s1', 'p3'), ('s1', 'p4'), ('s2', 'p1'), ('s2', 'p2'), ('s2', 'p5'), ('s3', 'p3')]),
    ('SELECT * FROM supplies', True,
     'rename[p_no->supplies.p_no, s_no->supplies.s_no](supplies)',
     '6caf413c9e9c953196fc9b5f1b4343bac8b84885635c9ff7b187bee09bc9f8a0',
     ('supplies.s_no', 'supplies.p_no'),
     [('s1', 'p1'), ('s1', 'p2'), ('s1', 'p3'), ('s1', 'p4'), ('s2', 'p1'), ('s2', 'p2'), ('s2', 'p5'), ('s3', 'p3')]),
    ("SELECT * FROM parts AS p WHERE color = 'red'", True,
     "rename[color->p.color, p_no->p.p_no](select[color = 'red'](parts))",
     '3e1bc0e72317325bcdd26a3f4dfa25a13158df92631184f24258a03eb2cde0e0',
     ('p.p_no', 'p.color'),
     [('p3', 'red'), ('p4', 'red')]),
    ('SELECT * FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no', True,
     'rename[color->p.color, p_no->s.p_no, s_no->s.s_no](select[p_no = p.p_no](product(supplies, rename[p_no->p.p_no](parts))))',
     '8dfbc0fb69fda7655ea6b35b708c32590fc5ac2c46234ac71cf3ad040a2eccf1',
     ('s.s_no', 's.p_no', 'p.p_no', 'p.color'),
     [('s1', 'p1', 'p1', 'blue'), ('s1', 'p2', 'p2', 'blue'), ('s1', 'p3', 'p3', 'red'), ('s1', 'p4', 'p4', 'red'), ('s2', 'p1', 'p1', 'blue'), ('s2', 'p2', 'p2', 'blue'), ('s2', 'p5', 'p5', 'green'), ('s3', 'p3', 'p3', 'red')]),
    ('SELECT * FROM supplies AS a, supplies AS b WHERE a.s_no = b.s_no', True,
     'rename[p_no->a.p_no, s_no->a.s_no](select[s_no = b.s_no](product(supplies, rename[p_no->b.p_no, s_no->b.s_no](supplies))))',
     'b5d2a6fa62bdd3e707ed9ef7c22a28eca82d43b4064446a6ef7521ad5fa4bd7f',
     ('a.s_no', 'a.p_no', 'b.s_no', 'b.p_no'),
     [('s1', 'p1', 's1', 'p1'), ('s1', 'p1', 's1', 'p2'), ('s1', 'p1', 's1', 'p3'), ('s1', 'p1', 's1', 'p4'), ('s1', 'p2', 's1', 'p1'), ('s1', 'p2', 's1', 'p2'), ('s1', 'p2', 's1', 'p3'), ('s1', 'p2', 's1', 'p4'), ('s1', 'p3', 's1', 'p1'), ('s1', 'p3', 's1', 'p2'), ('s1', 'p3', 's1', 'p3'), ('s1', 'p3', 's1', 'p4'), ('s1', 'p4', 's1', 'p1'), ('s1', 'p4', 's1', 'p2'), ('s1', 'p4', 's1', 'p3'), ('s1', 'p4', 's1', 'p4'), ('s2', 'p1', 's2', 'p1'), ('s2', 'p1', 's2', 'p2'), ('s2', 'p1', 's2', 'p5'), ('s2', 'p2', 's2', 'p1'), ('s2', 'p2', 's2', 'p2'), ('s2', 'p2', 's2', 'p5'), ('s2', 'p5', 's2', 'p1'), ('s2', 'p5', 's2', 'p2'), ('s2', 'p5', 's2', 'p5'), ('s3', 'p3', 's3', 'p3')]),
    ('SELECT * FROM (SELECT p_no AS x FROM supplies) AS q, parts AS p', True,
     'rename[color->p.color, p_no->q.x](product(project[p_no](supplies), rename[p_no->p.p_no](parts)))',
     '3bdda01b0b2b72d38d86ba0eb612c1145946f87b9b3925c48b0e624ae1781697',
     ('q.x', 'p.p_no', 'p.color'),
     [('p1', 'p1', 'blue'), ('p1', 'p2', 'blue'), ('p1', 'p3', 'red'), ('p1', 'p4', 'red'), ('p1', 'p5', 'green'), ('p2', 'p1', 'blue'), ('p2', 'p2', 'blue'), ('p2', 'p3', 'red'), ('p2', 'p4', 'red'), ('p2', 'p5', 'green'), ('p3', 'p1', 'blue'), ('p3', 'p2', 'blue'), ('p3', 'p3', 'red'), ('p3', 'p4', 'red'), ('p3', 'p5', 'green'), ('p4', 'p1', 'blue'), ('p4', 'p2', 'blue'), ('p4', 'p3', 'red'), ('p4', 'p4', 'red'), ('p4', 'p5', 'green'), ('p5', 'p1', 'blue'), ('p5', 'p2', 'blue'), ('p5', 'p3', 'red'), ('p5', 'p4', 'red'), ('p5', 'p5', 'green')]),
    ('SELECT * FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no', True,
     'rename[color->p.color, s_no->s.s_no](great_divide(supplies, parts))',
     'd5664c5f7d1f1451b8769e4a2b7dd223a9ae48a7ac4e9e374aff969c2de6d67f',
     ('s.s_no', 'p.color'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green')]),
    ("SELECT * FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no", True,
     "rename[s_no->s.s_no](divide(supplies, project[p_no](select[color = 'blue'](parts))))",
     '0cad746742f0676eb420285f11e1a2a5ea55d108dad39af657956081310be1be',
     ('s.s_no',),
     [('s1',), ('s2',)]),
    ('SELECT * FROM parts AS t, supplies AS s DIVIDE BY wanted AS w ON s.p_no = w.p_no', True,
     'rename[color->t.color, p_no->t.p_no, s_no->s.s_no](product(parts, divide(supplies, wanted)))',
     'fcbcfd87aa8784d86d474c15ba7149d4e604e24f7ee8e22efd0b330050788169',
     ('t.p_no', 't.color', 's.s_no'),
     [('p1', 'blue', 's1'), ('p2', 'blue', 's1'), ('p3', 'red', 's1'), ('p4', 'red', 's1'), ('p5', 'green', 's1')]),
    ("SELECT * FROM (SELECT * FROM supplies AS s) AS q WHERE q.p_no = 'p1'", True,
     "rename[p_no->q.p_no, s_no->q.s_no](select[p_no = 'p1'](supplies))",
     '0738140caef7844433f60b638d9def0b2062acfbd4a6236449f649cc41438faf',
     ('q.s_no', 'q.p_no'),
     [('s1', 'p1'), ('s2', 'p1')]),
    ("SELECT x FROM (SELECT p_no AS x FROM supplies WHERE s_no = 's1') AS q", True,
     "rename[p_no->x](project[p_no](select[s_no = 's1'](supplies)))",
     'b48c8ee11c20983603d3d3f9b2972c0abd5db638e976c91d2b3438f1ae065ef4',
     ('x',),
     [('p1',), ('p2',), ('p3',), ('p4',)]),
    ("SELECT p_no FROM parts WHERE color = 'blue'", True,
     "project[p_no](select[color = 'blue'](parts))",
     '3d45c575de0173a6041bb32360bf3626fe42a3f91e0007b67f4ac2cf34627355',
     ('p_no',),
     [('p1',), ('p2',)]),
    ('SELECT p_no AS part FROM parts', True,
     'rename[p_no->part](project[p_no](parts))',
     '94538b70d019b6a1115ecb14c71354d2d4b37d635c5dac932b86fce01a769a9c',
     ('part',),
     [('p1',), ('p2',), ('p3',), ('p4',), ('p5',)]),
    ('SELECT s_no AS p_no, p_no AS s_no FROM supplies', True,
     'rename[p_no->s_no, s_no->p_no](supplies)',
     'eaf11c00471654bd49aa234e9b4647dda2e145247b38d6f541f145f8887a09b5',
     ('p_no', 's_no'),
     [('s1', 'p1'), ('s1', 'p2'), ('s1', 'p3'), ('s1', 'p4'), ('s2', 'p1'), ('s2', 'p2'), ('s2', 'p5'), ('s3', 'p3')]),
    ("SELECT s_no FROM supplies WHERE p_no >= 'p3' AND NOT (s_no = 's1')", True,
     "project[s_no](select[(p_no >= 'p3' AND NOT (s_no = 's1'))](supplies))",
     'eabb3c8ed3ee866bd4421985cb36e94b85f01a27f058b88f453143965bf2bc5c',
     ('s_no',),
     [('s2',), ('s3',)]),
    ("SELECT s.s_no FROM supplies AS s WHERE s.p_no = 'p1' OR s.s_no = 's3'", True,
     "project[s_no](select[(p_no = 'p1' OR s_no = 's3')](supplies))",
     '20ab6695f2f43d6324cae632dacd53435e827d5b44a0c886a192992ce633e92c',
     ('s_no',),
     [('s1',), ('s2',), ('s3',)]),
    # A name leaks out of a subquery (b.p_no) that the outer alias b would give parts' p_no:
    # both operands keep their qualified names, as canonicalization leaves them.
    ('SELECT q.x FROM (SELECT a.p_no AS x, b.p_no AS y FROM supplies AS a, supplies AS b) AS q, parts AS b', True,
     'rename[q.x->x](project[q.x](product(rename[b.p_no->q.y, p_no->q.x](project[p_no, b.p_no](product(supplies, rename[p_no->b.p_no, s_no->b.s_no](supplies)))), rename[color->b.color, p_no->b.p_no](parts))))',
     '44bb906f6a6579abb0f368774aac61c2d0d431113815f950c5ebc71caa794335',
     ('x',),
     [('p1',), ('p2',), ('p3',), ('p4',), ('p5',)]),
    # The divisor's p.color is a dividend attribute too: still a great divide, kept apart.
    ('SELECT * FROM (SELECT s.s_no, s.p_no, t.color, p.color AS c FROM supplies AS s, parts AS t, parts AS p) AS d DIVIDE BY parts AS p ON d.p_no = p.p_no', True,
     'great_divide(rename[color->d.color, p.color->d.c, p_no->d.p_no, s_no->d.s_no](project[s_no, p_no, color, p.color](product(product(supplies, rename[p_no->t.p_no](parts)), rename[color->p.color, p_no->p.p_no](parts)))), rename[color->p.color, p_no->d.p_no](parts))',
     '8d4d194051501e62d705f7b5308e32c2ca3d5500063540007470ed9e30a72c68',
     ('d.s_no', 'd.color', 'd.c', 'p.color'),
     [('s1', 'blue', 'blue', 'blue'), ('s1', 'blue', 'blue', 'red'), ('s1', 'blue', 'green', 'blue'), ('s1', 'blue', 'green', 'red'), ('s1', 'blue', 'red', 'blue'), ('s1', 'blue', 'red', 'red'), ('s1', 'green', 'blue', 'blue'), ('s1', 'green', 'blue', 'red'), ('s1', 'green', 'green', 'blue'), ('s1', 'green', 'green', 'red'), ('s1', 'green', 'red', 'blue'), ('s1', 'green', 'red', 'red'), ('s1', 'red', 'blue', 'blue'), ('s1', 'red', 'blue', 'red'), ('s1', 'red', 'green', 'blue'), ('s1', 'red', 'green', 'red'), ('s1', 'red', 'red', 'blue'), ('s1', 'red', 'red', 'red'), ('s2', 'blue', 'blue', 'blue'), ('s2', 'blue', 'blue', 'green'), ('s2', 'blue', 'green', 'blue'), ('s2', 'blue', 'green', 'green'), ('s2', 'blue', 'red', 'blue'), ('s2', 'blue', 'red', 'green'), ('s2', 'green', 'blue', 'blue'), ('s2', 'green', 'blue', 'green'), ('s2', 'green', 'green', 'blue'), ('s2', 'green', 'green', 'green'), ('s2', 'green', 'red', 'blue'), ('s2', 'green', 'red', 'green'), ('s2', 'red', 'blue', 'blue'), ('s2', 'red', 'blue', 'green'), ('s2', 'red', 'green', 'blue'), ('s2', 'red', 'green', 'green'), ('s2', 'red', 'red', 'blue'), ('s2', 'red', 'red', 'green')]),
    # Names are chosen in the subquery's canonical column order, not its select list's.
    ('SELECT * FROM wanted, (SELECT b.p_no AS x, wanted.p_no, color AS c FROM wanted, parts AS b) AS b', True,
     'rename[color->b.c, p_no->wanted.p_no](product(wanted, rename[b.p_no->b.x, p_no->b.p_no](product(wanted, rename[p_no->b.p_no](parts)))))',
     '5b4640a60bf559078a8257ee95db4778873262049ac0950e5393cbf702b3aa55',
     ('wanted.p_no', 'b.x', 'b.p_no', 'b.c'),
     [('p1', 'p1', 'p1', 'blue'), ('p1', 'p1', 'p3', 'blue'), ('p1', 'p2', 'p1', 'blue'), ('p1', 'p2', 'p3', 'blue'), ('p1', 'p3', 'p1', 'red'), ('p1', 'p3', 'p3', 'red'), ('p1', 'p4', 'p1', 'red'), ('p1', 'p4', 'p3', 'red'), ('p1', 'p5', 'p1', 'green'), ('p1', 'p5', 'p3', 'green'), ('p3', 'p1', 'p1', 'blue'), ('p3', 'p1', 'p3', 'blue'), ('p3', 'p2', 'p1', 'blue'), ('p3', 'p2', 'p3', 'blue'), ('p3', 'p3', 'p1', 'red'), ('p3', 'p3', 'p3', 'red'), ('p3', 'p4', 'p1', 'red'), ('p3', 'p4', 'p3', 'red'), ('p3', 'p5', 'p1', 'green'), ('p3', 'p5', 'p3', 'green')]),
    # A projection that keeps every column of a renamed subquery keeps the subquery's order.
    ('SELECT y, x FROM (SELECT p.color AS x, s.s_no AS y FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no) AS q', True,
     'rename[color->x, s_no->y](project[color, s_no](select[p_no = p.p_no](product(supplies, rename[p_no->p.p_no](parts)))))',
     '36547c47481cb2ed31e9899258c67d30f52269f11e4ab6b541711210a525d05e',
     ('y', 'x'),
     [('s1', 'blue'), ('s1', 'red'), ('s2', 'blue'), ('s2', 'green'), ('s3', 'red')]),
    # ... but one over a subquery that renames nothing takes the select list's order.
    ('SELECT s_no, p_no FROM (SELECT b.p_no, b.s_no FROM supplies AS a, supplies AS b) AS b', True,
     'rename[b.p_no->p_no, b.s_no->s_no](project[b.s_no, b.p_no](product(supplies, rename[p_no->b.p_no, s_no->b.s_no](supplies))))',
     'b2739f4dd3956f1279edf8a0214405177427d1cf4acded979f1b3e8de13719f3',
     ('s_no', 'p_no'),
     [('s1', 'p1'), ('s1', 'p2'), ('s1', 'p3'), ('s1', 'p4'), ('s2', 'p1'), ('s2', 'p2'), ('s2', 'p5'), ('s3', 'p3')]),
]


@pytest.fixture(scope="module")
def tables():
    catalog = textbook_catalog()
    tables = {name: catalog[name] for name in ("supplies", "parts")}
    tables["wanted"] = Relation(["p_no"], [("p1",), ("p3",)])
    return tables


@pytest.mark.parametrize(
    "text, recognize, canonical, fingerprint, schema, rows", PINS, ids=[str(i) for i in range(len(PINS))]
)
def test_translation_keeps_its_pinned_canonical_form(tables, text, recognize, canonical, fingerprint, schema, rows):
    expression = translate_sql(text, tables, recognize_division=recognize)
    assert expression.canonical().to_text() == canonical
    assert expression.fingerprint() == fingerprint
    assert expression.schema.names == schema
    assert sorted(expression.evaluate(tables).to_tuples(list(schema))) == rows


@pytest.mark.parametrize(
    "text, recognize, canonical, fingerprint, schema, rows", PINS, ids=[str(i) for i in range(len(PINS))]
)
def test_a_run_answers_in_the_select_lists_order(tables, text, recognize, canonical, fingerprint, schema, rows):
    # The plan is the canonical tree's; the answer is the text's.
    relation = connect(tables).sql(text, recognize_division=recognize).run().relation
    assert relation.schema.names == schema
    assert sorted(relation.to_tuples()) == rows


@pytest.mark.parametrize(
    "text",
    [
        Q1,
        PINS[0][0],
        "SELECT s_no FROM supplies AS s DIVIDE BY wanted AS w ON s.p_no = w.p_no",
        "SELECT who FROM (SELECT s_no AS who, p_no FROM supplies) AS s DIVIDE BY wanted AS w ON s.p_no = w.p_no",
        "SELECT s.s_no AS who, p.color AS hue FROM supplies AS s DIVIDE BY parts AS p ON p.p_no = s.p_no",
        "SELECT * FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts) AS p ON s.p_no = p.p_no",
        "SELECT s_no, color FROM supplies AS s, (SELECT color FROM parts) AS p WHERE p.color = 'red'",
        Q3,
    ],
)
def test_a_clash_free_text_holds_no_rename_below_its_root(tables, text):
    expression = translate_sql(text, tables)
    below_root = list(expression.walk())[1:]
    assert not any(isinstance(node, Rename) for node in below_root), expression.to_text()


def test_a_shared_attribute_is_renamed_once_to_its_qualified_name(tables):
    expression = translate_sql("SELECT s.s_no FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no", tables)
    renames = [node for node in expression.walk() if isinstance(node, Rename)]
    assert [node.mapping for node in renames] == [{"p_no": "p.p_no"}]


def test_a_divide_whose_operands_share_a_correlation_name_is_refused(tables):
    text = "SELECT s_no FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts) AS s ON s.p_no = s.p_no"
    with pytest.raises(SQLTranslationError, match="duplicate correlation names"):
        translate_sql(text, tables)
