"""Golden-output oracle for every registered experiment spec.

These SHA-256 digests were captured from the pre-optimization
simulator (commit f2501bd, before the engine/radio/cipher hot-path
rewrite) over the same tiny parameterisations the determinism suite
uses.  Any change that alters a single byte of any spec's rendered
table or CSV — an RNG draw reordered, a float formatted differently, a
tie broken another way — fails here, which is the repo's
cold before/after equivalence gate for performance work.

``privacy-suite`` and ``tune-eval`` are registered through
``runner.get_spec`` rather than :data:`repro.experiments.SPECS`, so
they carry their own parameterisations and digests
(:data:`SUBSYSTEM_DIGESTS`, captured from the 1.15.0 tree).  Their
tiny sweeps cover l = 2 and 3, Eschenauer-Gligor and pairwise keys,
crashed nodes, and sensors that sit out short of red and short of blue
aggregators.

If a change is *meant* to alter results, regenerate with::

    PYTHONPATH=src python tests/experiments/test_golden_outputs.py

and paste the printed dicts, explaining the semantic change in the
commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import SPECS
from repro.runner import execute

from .test_runner import TINY_KWARGS

#: spec -> (sha256 of table.to_text(), sha256 of table.to_csv())
GOLDEN_DIGESTS = {
    "ablation-budget": (
        "a7abb8d60b670f7f45642f5e6a9e921506ebe26ca2d863bced6de8c3b089ab76",
        "84c6a9297d571e0157a3196bcc012d39f41de872fca372bb21864ba47b0e715e",
    ),
    "ablation-collusion": (
        "53ef77602f726caf0a3ecf2da235c4ec5ecffb008764e8b0a61f99d4d3b1e613",
        "656fba38ce36267ddc3800ad1520009c186e3e72e35e28e0811a9e993e3515a8",
    ),
    "ablation-key-schemes": (
        "7e4407950b53927159e50cadb3e9c1831637a30346da638d4206859513a6ffd5",
        "a301fcb2b6afe1170dfdae8d345eca9c494159d4a09ba70613608dde518c7fd0",
    ),
    "ablation-role-mode": (
        "5e22220c0c5da5d76ee0b2df7ac926332b081d972cdb1c1688fcf3be1e67c362",
        "6c0629e349bf4f7f654c2759a7da8c86fbe8b1b5c386d0dd650020a2422cd1da",
    ),
    "ablation-slices": (
        "5f3736dd08febe6d5b23e8c0bf08d70a610df35b305042f0a9b98e7fa20f42d1",
        "859dbe9296f972c7b08e62ebd8411203d25ea7c9f45f512f2fb72505d1f6c86f",
    ),
    "ablation-threshold": (
        "6692c7048de82ad8f5d5863b9c0c666a9a0ab50a42f729cfcdba501071b0fe1a",
        "654cf0d5e3d7ff713c42208671471ec1b2170371049b85340c68cc91d7f529c7",
    ),
    "ablation-trees": (
        "607ce86647542bc5765a6f80c1991cb6ba713c5f680115c2395d7be54f149832",
        "8762ffccc5ed33336297c3dcaa6c36480852531a4931f50b5c7ebf1c45373a8e",
    ),
    "energy": (
        "57a17b8d9e81960b006b3ba2e5ccf08cad6f2a1069aca8da94739e705cd66e0e",
        "62dc83fd7357437a5459b00e36cd8c294a8a59a76e4ed15e2818a45badfc56a7",
    ),
    "fault-sweep": (
        "e501b086739e2ed9df11b9b167166d3c037f93022782241ff5e9d6e561266ad4",
        "a1d23be05fb9aa0aa5cd0c032bf2c2168662869cd1d631fcc859f83fc09347d6",
    ),
    "fig1": (
        "8719a184fbc97d5b74ed43cdb89e8100db1ba81ce6537a70195e6c253f4d5097",
        "ec8b84758a8813c7f5a9a29d765bc60b44bb79a34ff6b3723ababaf51e71fc3d",
    ),
    "fig4": (
        "8e95eea491c7357d2db235fc0c1838f62ead48a5c300033205b36d5b1ce62c01",
        "e100af54261ab765f6115b721cb8a5e8d5afeef65c63fd893c9a67062653c97f",
    ),
    "fig5": (
        "5d7aabbb4c3c9585c2f4e86ed5ee24280da76331d1abc6f61dd07bd98bfe9b70",
        "1785fff2e55f2a91d49fbb8b2e331b61aa04fcfbcd5f74faa05225ef55ce8958",
    ),
    "fig6": (
        "76101205280cfaf6b934bd2211aa11471fc02a6e6fd2f8ac0794498272e4a71d",
        "ebaa94b925b5e519f52c1720bbd108f94b8ebbe351a47fc02aca9ccf3c956264",
    ),
    "fig7": (
        "0aaa8f356fed14957ba0d6621f8dbae91a8fcc529e847b5ae95a2a3b49131e52",
        "4288887649bb21d1af39ede4b95ee08cac2980159c43e00edc8a2b5c07471c92",
    ),
    "fig8": (
        "7b8d9d761b4361969a79e95d8edaf328b36b5480145591603372cbc14404bb63",
        "e434e1efe6d87bb162d5d4f91d63d06b8312c531b2f1f2fcbcbc545971ea3c21",
    ),
    "fig8-coverage": (
        "89398f6e1dfca7b0c1d80b3b0e16249b3f461b7511bc6dd46994bc90d54db96b",
        "1eea44138c5f77d2b4202f74af4e583856461966c16c4039498c964a673a8ee7",
    ),
    "latency": (
        "2ad6c7f88b1debc1d7a73fe21d7dc3435f800d080daf2731c6bfe468cfb0f24c",
        "5901877eb5ad870dc11fd93a53c03056e5312f0682f89cc1fd80402b85733e39",
    ),
    "table1": (
        "9e4c70d4aacffc0b29f031eb4ba185e027844140a0d4ca2000cbaf00b4221449",
        "eb4fdf7c6b3d2dfc46388df5e7a88b231e8025601c1598173284b29a8f6c5a86",
    ),
}


#: subsystem spec -> tiny parameterisation
SUBSYSTEM_KWARGS = {
    "privacy-suite": {
        "slice_counts": (2, 3),
        "schemes": ("eg-1000/50", "pairwise"),
        "node_count": 200,
        "mi_trials": 2,
        "disclosure_trials": 3,
        "collusion_trials": 3,
    },
    "tune-eval": {
        "grid": (
            (2, 5, "eg-1000/50", "fixed"),
            (3, 0, "pairwise", "adaptive-3"),
        ),
        "node_count": 200,
        "mi_trials": 2,
        "disclosure_trials": 3,
        "collusion_trials": 3,
        "accuracy_trials": 2,
        "crash_fraction": 0.1,
    },
}

#: subsystem spec -> (sha256 of table.to_text(), sha256 of table.to_csv())
SUBSYSTEM_DIGESTS = {
    "privacy-suite": (
        "9551eff78e52974cea7f994e3be44cd6abe28810f229dd28aa78f147bf746afb",
        "831b915825588884426acbd7b4c5163692f860bd7d242050fdc5bcb86df8300d",
    ),
    "tune-eval": (
        "f874482decc3327518f97731be354238c933ccb42cfdcf113c5066de973259fd",
        "063124533826acb9d42b983b61db7c12b2dbeadc325056bb15e0cf3eb7868446",
    ),
}


def _digests(name):
    kwargs = SUBSYSTEM_KWARGS.get(name, TINY_KWARGS.get(name))
    table = execute(name, jobs=1, cache=False, **kwargs)
    return (
        hashlib.sha256(table.to_text().encode()).hexdigest(),
        hashlib.sha256(table.to_csv().encode()).hexdigest(),
    )


class TestGoldenOutputs:
    def test_every_spec_has_a_golden_digest(self):
        assert set(GOLDEN_DIGESTS) == set(SPECS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_output_matches_pre_optimization_digest(self, name):
        text_digest, csv_digest = _digests(name)
        assert (text_digest, csv_digest) == GOLDEN_DIGESTS[name], (
            f"{name} output changed relative to the golden digests; "
            "see module docstring before regenerating"
        )


class TestSubsystemGoldenOutputs:
    def test_every_subsystem_spec_has_a_golden_digest(self):
        assert set(SUBSYSTEM_DIGESTS) == set(SUBSYSTEM_KWARGS)

    @pytest.mark.parametrize("name", sorted(SUBSYSTEM_DIGESTS))
    def test_output_matches_golden_digest(self, name):
        assert _digests(name) == SUBSYSTEM_DIGESTS[name], (
            f"{name} output changed relative to the golden digests; "
            "see module docstring before regenerating"
        )


if __name__ == "__main__":  # regeneration helper
    for _dict_name, _names in (
        ("GOLDEN_DIGESTS", TINY_KWARGS),
        ("SUBSYSTEM_DIGESTS", SUBSYSTEM_KWARGS),
    ):
        print(f"{_dict_name} = {{")
        for _name in sorted(_names):
            _text, _csv = _digests(_name)
            print(f'    "{_name}": (')
            print(f'        "{_text}",')
            print(f'        "{_csv}",')
            print("    ),")
        print("}")
