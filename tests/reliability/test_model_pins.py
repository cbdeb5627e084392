"""Every analytic model's floats and every line law's shape, pinned.

The values were recorded before the per-scheme model classes were folded
into one line model; they pin ``build_model(s).line_probs(ber)`` as
``float.hex`` on the F2 grid for the five default schemes and rank
SEC-DED (which no perfbench golden covers), and each scheme's count-level
law (``words``, ``n``, ``k_fail``, ``combine``, ``float.hex(q)`` and a
digest of its conditional rows) at two BERs.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.sweep import log_space
from repro.reliability import build_model
from repro.reliability.rareevent import line_law
from repro.schemes import RankSecDed, default_schemes

F2_BERS = [float(b) for b in log_space(1e-7, 1e-3, 9)]
SCHEMES = {s.name: s for s in [*default_schemes(), RankSecDed()]}

#: ``(sdc, due)`` as ``float.hex`` per F2 BER, samples 400, seed 0.
LINE_PROBS = {
    'no-ecc': [
        ('0x1.ad7c5a83c5123p-15', '0x0.0p+0'),
        ('0x1.538500f1a6aabp-13', '0x0.0p+0'),
        ('0x1.0c5dec014131ap-11', '0x0.0p+0'),
        ('0x1.a8174a852584ap-10', '0x0.0p+0'),
        ('0x1.4eb03ee78d1adp-8', '0x0.0p+0'),
        ('0x1.0723a6c1ff898p-6', '0x0.0p+0'),
        ('0x1.98e4d2911aa37p-5', '0x0.0p+0'),
        ('0x1.322e8d40e0d88p-3', '0x0.0p+0'),
        ('0x1.9a7a71d9b7d0cp-2', '0x0.0p+0'),
    ],
    'iecc-sec': [
        ('0x1.93bcb02803122p-32', '0x0.0p+0'),
        ('0x1.f8a95d4a55899p-29', '0x0.0p+0'),
        ('0x1.3b64eb70eec01p-25', '0x0.0p+0'),
        ('0x1.8a2aa4e88b573p-22', '0x0.0p+0'),
        ('0x1.ec6821912044ep-19', '0x0.0p+0'),
        ('0x1.33281b32666f8p-15', '0x0.0p+0'),
        ('0x1.7d8ffd572347ap-12', '0x0.0p+0'),
        ('0x1.d349350abbe14p-9', '0x0.0p+0'),
        ('0x1.0fc8ad1b11021p-5', '0x0.0p+0'),
    ],
    'xed': [
        ('0x1.5d3b8449db539p-32', '0x1.d02df35b822efp-70'),
        ('0x1.b4882ff04ac8ep-29', '0x1.6aa0d80291e82p-63'),
        ('0x1.10d0c061b709cp-25', '0x1.1b461ca421e78p-56'),
        ('0x1.54f3ae05bc8c6p-22', '0x1.ba7843de491c1p-50'),
        ('0x1.a9ec55ae6a2d4p-19', '0x1.5951e65061905p-43'),
        ('0x1.09ac89a637d6ap-15', '0x1.0ce4fca03656ap-36'),
        ('0x1.49fe507591628p-12', '0x1.9fcaf1eee8321p-30'),
        ('0x1.940f3417f5382p-9', '0x1.3a48d034e32dep-23'),
        ('0x1.d68a9b0b16509p-6', '0x1.ba107a6628afdp-17'),
    ],
    'duo': [
        ('0x1.e4f0b6f615b52p-132', '0x1.30b1d397a51d9p-111'),
        ('0x1.765a39452ce60p-120', '0x1.d66be9e877a67p-100'),
        ('0x1.20ea39f3715aep-108', '0x1.6b0ef646f970ap-88'),
        ('0x1.bd9e68a607c3dp-97', '0x1.17fd074bbabd0p-76'),
        ('0x1.56d81023ab2cbp-85', '0x1.aed3c147a9c93p-65'),
        ('0x1.05cd189a5ce81p-73', '0x1.48fc8c20a5d44p-53'),
        ('0x1.867620a25dc36p-62', '0x1.eaaa1fd03362bp-42'),
        ('0x1.0e2ade47155c9p-50', '0x1.537ff4fee7780p-30'),
        ('0x1.2759f687a0649p-39', '0x1.73258d95b27a0p-19'),
    ],
    'pair': [
        ('0x1.73db000832901p-143', '0x1.07ead9320a77ap-124'),
        ('0x1.66b80ad556937p-128', '0x1.fd301b09a246ap-110'),
        ('0x1.59c0f4f48a028p-113', '0x1.eac8ca1e50512p-95'),
        ('0x1.4c5dda9518537p-98', '0x1.d7c82587c7aaep-80'),
        ('0x1.3cce574b6622dp-83', '0x1.c1b1b3757a5c1p-65'),
        ('0x1.26011295f72fap-68', '0x1.a153eb6d18971p-50'),
        ('0x1.f57994240394dp-54', '0x1.63e98e1a77d56p-35'),
        ('0x1.47b2a522158d8p-39', '0x1.d1278b03fd34ep-21'),
        ('0x1.74c8be3dec5abp-26', '0x1.078b5ac5dba77p-7'),
    ],
    'rank-secded': [
        ('0x1.4a0bfffbda358p-52', '0x1.c1a74ee10efa2p-33'),
        ('0x1.4626bf332585ep-47', '0x1.19079faf6f918p-29'),
        ('0x1.424a9c63a3489p-42', '0x1.5f45cc7262059p-26'),
        ('0x1.3e71e0d7e1697p-37', '0x1.b7087ec23ba5ep-23'),
        ('0x1.3a8affe8b50e3p-32', '0x1.12481f2f4a85ap-19'),
        ('0x1.365f867cce960p-27', '0x1.56666a0b0dab5p-16'),
        ('0x1.314691ea0b5b7p-22', '0x1.aa320b31c1520p-13'),
        ('0x1.293a1804a58a4p-17', '0x1.06b389eff2dd6p-9'),
        ('0x1.183dba7b802d1p-12', '0x1.38c298a97be39p-6'),
    ],
}

#: ``(words, n, k_fail, combine, float.hex(q))`` of ``line_law(s, ber)``.
LAWS = {
    ('no-ecc', 1e-05): (1, 512, 1, 'flag-due-bad-sdc', '0x1.4f8b588e368f1p-17'),
    ('no-ecc', 0.0001): (1, 512, 1, 'flag-due-bad-sdc', '0x1.a36e2eb1c432dp-14'),
    ('iecc-sec', 1e-05): (4, 136, 2, 'flag-due-bad-sdc', '0x1.4f8b588e368f1p-17'),
    ('iecc-sec', 0.0001): (4, 136, 2, 'flag-due-bad-sdc', '0x1.a36e2eb1c432dp-14'),
    ('xed', 1e-05): (5, 136, 2, 'xed', '0x1.4f8b588e368f1p-17'),
    ('xed', 0.0001): (5, 136, 2, 'xed', '0x1.a36e2eb1c432dp-14'),
    ('duo', 1e-05): (1, 76, 7, 'flag-due-bad-sdc', '0x1.4f8856e9ab86bp-14'),
    ('duo', 0.0001): (1, 76, 7, 'flag-due-bad-sdc', '0x1.a3489be43d652p-11'),
    ('pair', 1e-05): (32, 256, 9, 'flag-due-bad-sdc', '0x1.4f8856e9ab86bp-14'),
    ('pair', 0.0001): (32, 256, 9, 'flag-due-bad-sdc', '0x1.a3489be43d652p-11'),
    ('rank-secded', 1e-05): (8, 72, 2, 'flag-due-bad-sdc', '0x1.4f8b588e368f1p-17'),
    ('rank-secded', 0.0001): (8, 72, 2, 'flag-due-bad-sdc', '0x1.a36e2eb1c432dp-14'),
}

#: first 16 hex digits of the SHA-256 of ``p_flag`` then ``p_bad`` (float64).
ROWS = {
    'no-ecc': 'ae2cc60d29de85c7',
    'iecc-sec': 'eee256c45ab73329',
    'xed': 'b739741676e548e3',
    'duo': '978e774a8b2754a6',
    'pair': '30bfc1848d087423',
    'rank-secded': '4612a844afa68efd',
}


@pytest.mark.parametrize("name", sorted(LINE_PROBS))
def test_line_probs(name):
    model = build_model(SCHEMES[name], samples=400, seed=0)
    got = []
    for ber in F2_BERS:
        probs = model.line_probs(ber)
        got.append((probs["sdc"].hex(), probs["due"].hex()))
    assert got == LINE_PROBS[name]


@pytest.mark.parametrize("name, ber", sorted(LAWS))
def test_line_law(name, ber):
    law = line_law(SCHEMES[name], ber)
    assert (law.words, law.n, law.k_fail, law.combine, law.q.hex()) == LAWS[name, ber]
    rows = np.concatenate([np.asarray(law.p_flag, float), np.asarray(law.p_bad, float)])
    assert hashlib.sha256(rows.tobytes()).hexdigest()[:16] == ROWS[name]
