"""Golden bytes: the artifacts `gramlm compile --out` writes for every asset
and for the variants of the shuttle grammars the compile benchmark builds.

The asset digests were recorded before the instantiation stage was indexed,
and the variant digests before instantiation, merging and emission were
rewritten to do each piece of work once; a refactor of the compiler must
leave every byte of every artifact as it was.
"""

import hashlib

import pytest
from conftest import SHUTTLES, TOYS, compiled, grammar, pfsgs

from gramlm import (
    build_pfsg,
    cfg_to_text,
    compile_grammar,
    k_words_per_category,
    measure,
    metrics_to_kv,
    pfsg_to_text,
    unlink_features,
    wordplus_grammar,
)
from gramlm.grammar import surface_tokens

GOLDEN = {
    "direct_left": {
        "grammar.cfg": "3666cf5762e67c5e1d29ec3fdb3d6530d62990f8976dc92ec3d10c612018b106",
        "grammar.pfsg": "115eae3aaa1951fed14944575ad350c581db42a95e57a8ff1917b4a3be8b9f67",
        "metrics.kv": "d601d5dd4d4d87d857162ba5b4fca485eb01341c0880c52329372935a44df556",
    },
    "indirect_left": {
        "grammar.cfg": "d6e10e463821ee4b3c90835df6f38064ba159d4424c87e657d54652a9dc70a2e",
        "grammar.pfsg": "c0b099af2383dd6148970ab6ce40ac3ca4226f3c58cc85a5c11d11029797cd08",
        "metrics.kv": "d934911fd2d61a6b42c58d4f3f49b7623e5e7a28cdcb1095d836bc8c15cf945e",
    },
    "intj": {
        "grammar.cfg": "5dda1774736a26736bfff932e724a8f96cfe198467ee6964c8fdb61cd8c75c37",
        "grammar.pfsg": "a2d959ad16cde5269f96eae4fef89a245c6288378a9c87bf3a13114df4b46ef6",
        "metrics.kv": "f71113290b8f8721a61a381aec08e06c03afb182254c01176e24333cc6f6c838",
    },
    "rel_linked": {
        "grammar.cfg": "3132909266105c9deb74ce658658cfc53445ff9e5b24d2cd487b6520baddbdb4",
        "grammar.pfsg": "25169a71a1d290acbe56dabca7e4f5735c8baa0d091cbd0cb8664a81bc2065e1",
        "metrics.kv": "68edca04dd5f9545d4eea15beec9222aa123b0c2c6617a9aebb934e898632321",
    },
    "rel_unlinked": {
        "grammar.cfg": "13289b1ece4b8a9e17c7314dfcfc71b88fd1107f953db268df8ab7c53be8b9e9",
        "grammar.pfsg": "f2c00fe26ff0612f1433fe8b29f30f63f3f247132b987811acbaae9296d61f36",
        "metrics.kv": "9273af6b4a46b4233f393262bb24c420a92318a3a69ccdd27fe4d1e4cd5ef7c2",
    },
    "right_rec": {
        "grammar.cfg": "0667ac586e5ff5e8546ead163ab3ebcbbc211c70f3169721a7ef0cf3a86cb0a6",
        "grammar.pfsg": "b08e9d3c157a741a3b7aa1f423609c90c77213f3a819e0a7b7c6b5bf2b9c3205",
        "metrics.kv": "625c0491ba01c6c1a765e0ee848640c961cd421811a88aac528116af1fd4f138",
    },
    "shuttle_no_rels": {
        "grammar.cfg": "d4b995c1958c8a0717aa4d90169c09034b53425bb4669db388c0a5d6405ad4f9",
        "grammar.pfsg": "cfa7754a57ea42dad01f2237f76e8ce282801adf0739231507cb9ea7637d3de6",
        "metrics.kv": "7e477868b298aa73cb093729d9a9cd8b2b6b5efdb7baf4c7792d89c605a7a519",
    },
    "shuttle_rels": {
        "grammar.cfg": "dd9e1a85a0485f87746c046c00c679bd39a16a4e30cbc21a40b2106dfc2aa1c8",
        "grammar.pfsg": "61330922b6cdbae7413758eb7990eaf861c9ee78b1c38e558c380c14e57618e1",
        "metrics.kv": "1886e7f1028c507a39bcc806916135abe926163a703260cda393f2b5dfeb9ce1",
    },
    "shuttle_unlinked": {
        "grammar.cfg": "b7bff29f9d1d4d6bbda8e5f964ea9ea96b1ac4921077fd63e113c7c96d6da97e",
        "grammar.pfsg": "78563792ddfa7246cb7bd6db0010adef6fa194fd8a5902a66fb0d0e6e9ed47bf",
        "metrics.kv": "a94a721fbfe72f87134a47d632fa29f8c57d8d0b284185e6247c95daf7809e32",
    },
    "tiny_agreement": {
        "grammar.cfg": "425a28a2effc108c01d6b5ef13d77f8070d98c2d509afbf8ffb6595a8a83f043",
        "grammar.pfsg": "ccd9eca49e1ce2ebcd7bd60a5d03d8c3bdf7201926da72f8be98d6521fc252a9",
        "metrics.kv": "da2f52d331b9922a592b5ad7befacfdb3bc82767dc4198a302bbaf03078caf8b",
    },
    "wordplus3": {
        "grammar.cfg": "9fca158761c0bc4e7d36ecaad38276b2c0d29fc093d86d303e8feab29f4bdba3",
        "grammar.pfsg": "47458d78977893a28274ea319cfe6216e893183ec10bd006c00274718d7750ac",
        "metrics.kv": "b1e77164406a91959d4dc2e72fdedc18a681fe9b26a92275921bc9cd1d718ef6",
    },
}


# The variants the compile benchmark builds from the shuttle grammars.
VARIANTS = {
    **{
        f"{name}.k{k}": lambda name=name, k=k: k_words_per_category(grammar(name), k)
        for name in SHUTTLES
        for k in (1, 2)
    },
    "shuttle_rels.unlink": lambda: unlink_features(grammar("shuttle_rels"), "rel_mod", ["agr", "sort"]),
    "shuttle_rels.wordplus": lambda: wordplus_grammar(sorted(surface_tokens(grammar("shuttle_rels")))),
}

VARIANT_GOLDEN = {
    "shuttle_no_rels.k1": {
        "grammar.cfg": "bd4b6606823746d31f2d9659e4143694c159c98901dc09a1a73f5856f5835a10",
        "grammar.pfsg": "d46d5b34a65ae182b1e74011c000aa7c1c4298e7aca0f5df4686f1c7bc161a71",
        "metrics.kv": "a2e49a392d00194292fcefc73d321bbbc5ff9d66ddaaa2a93c3b0af1fc6ce7d2",
    },
    "shuttle_no_rels.k2": {
        "grammar.cfg": "b747ca0c0108cae5048a25f552291a9e25e5b3d6ea7fcbf9df6a004e15d78b44",
        "grammar.pfsg": "c24a1de64bda7eb6b1bc510fc8aeda9f530430d8b86eaf3f9bdbadc1a3c1e4a3",
        "metrics.kv": "e8e32a812e3d663b32bea8555d270e9f8b5581f93dc0f3e9e5d4121226114035",
    },
    "shuttle_rels.k1": {
        "grammar.cfg": "9c0f95bc93d244c540e3740e413d3838655d8ab042bf93b9f99e0564a7c03805",
        "grammar.pfsg": "5ca8c8aaec3b56744ae9b5f1e1a900dd88569cf51113a7091919480e4f56034f",
        "metrics.kv": "abd5f2a39cc4a5b0c1a62b8fffba17b2b7bb2f571ef2992dc60450a64f37d38b",
    },
    "shuttle_rels.k2": {
        "grammar.cfg": "9cc7f466eed0c342e7430b939c9f65e1a8b74cb65dc3830461a22114b69f2ead",
        "grammar.pfsg": "cf02e9059cc335821e4c3f9cd975874a70eac2e86cc609a90158b97c4e4f5400",
        "metrics.kv": "4ea9351b506b471fc29e8bad8a541efbb4a5c9a2c11721082ee037bb37436c50",
    },
    "shuttle_unlinked.k1": {
        "grammar.cfg": "dedaada1d4702a6c06d7a3b1041af5b89e3200eb4f4a6d72964f0d86868a3932",
        "grammar.pfsg": "4e1979f79c1806e025251d1bb5a31182b4aac8bcefa056b064dcafbb7e6f20c4",
        "metrics.kv": "e2f0c446bb10b278d04cd31bd887b31e987c40aaf8825222061bed9f4e7cdbc6",
    },
    "shuttle_unlinked.k2": {
        "grammar.cfg": "1a00671215ccdbf45c08796ca915962e80c05ddc8b8107c3f6f78bb18ed44858",
        "grammar.pfsg": "a602c22b8f23f9916c64d57e3190ca091d0b25879bcfd65206b8af4a408940b6",
        "metrics.kv": "78ac9affba9d97ea946eeb252ae1be1a0cce9947187712e0c3f87e7dfce63532",
    },
    "shuttle_rels.unlink": {
        "grammar.cfg": "b7bff29f9d1d4d6bbda8e5f964ea9ea96b1ac4921077fd63e113c7c96d6da97e",
        "grammar.pfsg": "78563792ddfa7246cb7bd6db0010adef6fa194fd8a5902a66fb0d0e6e9ed47bf",
        "metrics.kv": "a94a721fbfe72f87134a47d632fa29f8c57d8d0b284185e6247c95daf7809e32",
    },
    "shuttle_rels.wordplus": {
        "grammar.cfg": "059867ad00014566a47b543293597e229918d02bc1ca073de3d08168ec54957e",
        "grammar.pfsg": "9d5d33e47f928816e2537e738879c52faf04e6bbf445d27458f1332c1280449e",
        "metrics.kv": "6bb9ddefb52005f8bebd0b1d849ecb35b4bedf861a37de0651512ea7aff3ea6f",
    },
}


def test_golden_covers_every_asset():
    assert sorted(GOLDEN) == sorted(TOYS + SHUTTLES)


def _digests(cfg, graphs) -> dict[str, str]:
    texts = {
        "grammar.cfg": cfg_to_text(cfg),
        "grammar.pfsg": pfsg_to_text(graphs),
        "metrics.kv": metrics_to_kv(measure(graphs)),
    }
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest() for key, text in texts.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_are_byte_identical(name):
    assert _digests(compiled(name).cfg, pfsgs(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_artifacts_are_byte_identical(name):
    cfg = compile_grammar(VARIANTS[name]()).cfg
    assert _digests(cfg, build_pfsg(cfg)) == VARIANT_GOLDEN[name]
