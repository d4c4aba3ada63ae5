"""Golden digests of CLI reports on a fixed corpus of small games.

Each digest covers one command's exit code, stdout, stderr and the bytes of
the profile file it writes; the ``br-*`` digests cover the exact bits
(``float.hex``) of both best-response values against each written profile.
A refactor that must keep every report byte-identical passes here unchanged.

After an intended report change, print the new table with

    PYTHONPATH=src python tests/test_golden_reports.py

and record the change in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import pytest

from stopgames import gamefile
from stopgames.cli import run
from stopgames.tree import constant_stopping_time
from stopgames.verify import check_equilibrium

from conftest import map_payoffs

#: (name, horizon, branching, seed, zero_sum, rounded); rounded games carry
#: payoffs in {-1, 0, 1}, so exact zeros and ties occur.
GENERATED = (
    ("g1", 1, 1, 1, False, False),
    ("g2", 1, 2, 2, False, False),
    ("g3", 2, 1, 3, False, False),
    ("g4", 2, 2, 4, False, False),
    ("g5", 2, 2, 5, False, False),
    ("g6", 3, 2, 6, False, False),
    ("g7", 3, 1, 7, False, False),
    ("g8", 0, 2, 8, False, False),
    ("g9", 4, 2, 9, False, False),
    ("z1", 1, 2, 11, True, False),
    ("z2", 2, 2, 12, True, False),
    ("z3", 3, 2, 13, True, False),
    ("z4", 2, 1, 14, True, False),
    ("z5", 4, 2, 15, True, False),
    ("r1", 1, 2, 21, False, True),
    ("r2", 2, 2, 22, False, True),
    ("r3", 3, 2, 23, False, True),
    ("rz1", 2, 2, 24, True, True),
    ("rz2", 3, 2, 25, True, True),
    ("rz3", 1, 1, 33, True, True),
    ("r4", 4, 2, 26, False, True),
)

GOLDEN = {
    "g1/br-seq": "27a6c84f6b3ec658ea8da7358d4154ab0141558bff3293a9d90567de87841344",
    "g1/br-sim": "27a6c84f6b3ec658ea8da7358d4154ab0141558bff3293a9d90567de87841344",
    "g1/enumerate-seq": "3eb25af27249426bf9fe8844489c193f8544e6b05f1d55a65350c62337c133ce",
    "g1/enumerate-sim": "9122aadf745f343930f6f780a4135aa03be01cdab65cafbf8104252ece2e64c0",
    "g1/solve-seq": "d076b755fc6bdbf71a9174c75ba95ce6068c0a56b833a0bacaa2718becf3a2bf",
    "g1/solve-sim": "d7fc1d86e5ed685c1aef34ba503d784534c5dd58b4d553f9a4f8a1b616eae17a",
    "g1/verify-seq": "de7af5d1d4af56774199245061f6e32f1cba905ab6e506064c42a9f89fa575ca",
    "g1/verify-sim": "9cecb0385e6044a7830c642f8873736d016fd34f6dd460a8e5975ca81f85d94e",
    "g2/br-seq": "0ea84f8449c2178af388290c1ebbd30bbea4b17604d3f7be1b3158985340bbdc",
    "g2/br-sim": "595457ae516322acee650dc78b1dcdb8e6e5f837c7201ffd23a3f7eb4b9a1e7d",
    "g2/enumerate-seq": "42ccaf84af556582d8b6a90ddaa4954bca98ada9daa6d76830d1267e18184b4f",
    "g2/enumerate-sim": "ce5920ac6e17c30d9f8027b2a742d999ea5152e784b4a59dc39379b0f3a991e2",
    "g2/solve-seq": "bb5a2abce6c006339a8f367897f9890e052a1006951a31b851a2391197a9840f",
    "g2/solve-sim": "1113d8d59b527d22a9cb39c1ebaf544437e50ba48e63f0b1ddab443e92ad0a67",
    "g2/verify-seq": "5e48433c5aa80be0bf00f2058ab36533ad43473cd270eb7b0b027d4837acb056",
    "g2/verify-sim": "ae78f8c00ba3147531264d8681ca66f692e9ee5ac12c95b3cec0ad0725f1aba2",
    "g3/br-seq": "b76bf721c2092217a302c558cda9f80e184f3e1fd50b511e1c16b088b390c91c",
    "g3/br-sim": "6a6a078e8f9fbcbc2bc821befe1f76c429f1f22e9005e03732e39c729719bcde",
    "g3/solve-seq": "94fcbfba63b937fef5dc675a699eb434e5d188781864831502a6f3fce9e95c95",
    "g3/solve-sim": "91c83f4b2b90c9204dcda09ae6cc1001878cdb9454874b148895eca038169c29",
    "g3/verify-seq": "feff7cd9860a768483db7693073da1922aaab8ebcafa1a91be49635797786736",
    "g3/verify-sim": "53db5a21934adefdb9063c6256e57c2142bce9cfe313ffcb6c886cb53dfd2afc",
    "g4/br-seq": "25e80de763d042686c9eba97dd8a72fb9b60c7f22720d8f5135cf2ca551b9ac8",
    "g4/br-sim": "25e80de763d042686c9eba97dd8a72fb9b60c7f22720d8f5135cf2ca551b9ac8",
    "g4/solve-seq": "837f333e88fe8834d7bf94aed429834b902671c111ecf455d5c2ae0c216e54b0",
    "g4/solve-sim": "a4c88dc5d49ee10e02e68a96dc02493f00ba2d795b1627f8762790b160987db4",
    "g4/verify-seq": "b796648bfe2e32d2cb418129e6aeb0224d17d156fc8359ccd49cf1f3ce838cf3",
    "g4/verify-sim": "e0fa5314acf5f4089bff377fb28d792ba953bc9eaa408f46077f1ddf3fa9a3a3",
    "g5/br-seq": "036ac4a76f005a1edca086db03b18b646589ebd38832a05ab89094bb88ec36cd",
    "g5/br-sim": "036ac4a76f005a1edca086db03b18b646589ebd38832a05ab89094bb88ec36cd",
    "g5/solve-seq": "1c4e719015425e5e4bc3557d918e5ae48ee18e7c5edd69c4246f615cf77ca00c",
    "g5/solve-sim": "417a04ccfc22774d1c2fd7a40ce870c669db0041f31459d7ae4594c13403e491",
    "g5/verify-seq": "a0a8fc2e67d1560342f9b111ab909d0cc8b112f3e82967db6330454606970993",
    "g5/verify-sim": "be43049a4b1a27a089e4839cd18fd2eb3d46917f36ff9b881aae07b5ff4182c9",
    "g6/br-seq": "247c9ddf4c6b1879c561836910a7e55799d7d07ac396bf7f630e6b0af39c4770",
    "g6/br-sim": "247c9ddf4c6b1879c561836910a7e55799d7d07ac396bf7f630e6b0af39c4770",
    "g6/solve-seq": "76166d1e24b866a0911b7c3bf9271a2c18f2d80a794e92b576b2f109adc0ac37",
    "g6/solve-sim": "652c401203a36314d2d473c10f9f37a564284cdf42cd1a3c901345f9a28e0a88",
    "g6/verify-seq": "2af817216bf338eb9a0987d02f088b919b14f12b79baf63a737b13d78523c989",
    "g6/verify-sim": "39e6cc6d4eb27eaf1dc0ab3df2eaf2669015641cada8cd61e05ca8d93532fc52",
    "g7/br-seq": "6a3188246163a8d610e6e54605ffd23901400f9fe6d3df5bf7b613a984fc7181",
    "g7/br-sim": "6a3188246163a8d610e6e54605ffd23901400f9fe6d3df5bf7b613a984fc7181",
    "g7/solve-seq": "a7e7875c5e75c81c32a9d5a71073eaafe8ada96f6c8e3225315417955ca2ea98",
    "g7/solve-sim": "7a8c0873dbfe8f7eb515c067b67ca283a17249176d21e8fdb84a61c632ca5721",
    "g7/verify-seq": "7bac524e892c9a0c235be89bc4a866afc31bf40e89f477117d7a289ea29d1c4c",
    "g7/verify-sim": "56dd53f7fd4a85d1d6faf3482cef32b7d753d407e1ab83586fdef96ae2c3c0ff",
    "g8/br-seq": "496e5fa42593da9e721992a7dd9639bc385ef926ad124a6abe423bea1b41ff69",
    "g8/br-sim": "496e5fa42593da9e721992a7dd9639bc385ef926ad124a6abe423bea1b41ff69",
    "g8/enumerate-seq": "7b387487d77c1b2c54ad41011948cdcba68a1e49dcb70d84af5f270da21ee77a",
    "g8/enumerate-sim": "ccafafb30b4eb6cfa92a1a5b46e12850e29a23666ee53fd064bf301dc78fb3ef",
    "g8/solve-seq": "f8c3eea16fac756c739223f2c40d0c1e438e7f2f56bcffd16db7e413e28489a7",
    "g8/solve-sim": "8c5c3ecbbf7918677745bbce2721a602eba7fd78d25c2373950636b566375869",
    "g8/verify-seq": "2a7bea8c1b0af5657151b6bfde26a029e9b42c5b04dc320686fe67cfa86f3100",
    "g8/verify-sim": "83ac8a112cf6defd9bac90c7676b02aaa1a29c1d6b26caaca485a105c4feaea4",
    "g9/br-seq": "c4949d055e8b87cb558ac29fd436804f33e6c14c0d9a4cea5ba33a19ca7026cf",
    "g9/br-sim": "c4949d055e8b87cb558ac29fd436804f33e6c14c0d9a4cea5ba33a19ca7026cf",
    "g9/solve-seq": "98bdf44f1147360ec08975b93be15768f358822f55ebce196e038685065f6bae",
    "g9/solve-sim": "af566653ebeeab3f11c589addae299e839ded8d7fcdbcc46a820c5ad75ec935b",
    "g9/verify-seq": "75f69553c34543bd7bea9157a2a161f45837011bc72bd83033a47af8364fa296",
    "g9/verify-sim": "930d4c234e3b5b2249c48258052619a3723077aa3a1284c5a545acaaae9edb57",
    "matching/br-seq": "11d81e95f7b46627915f679e539203162ed22a39e6decaa1f4e58159195f0b09",
    "matching/br-sim": "a354d02d8c65821b3d72659e14a7e053cf23fb451ef283ca5d6cbe5a9ac5f994",
    "matching/enumerate-seq": "3b8198405d049daa370b61f6f4c8981dbee20c0692b816ead2820c5ec6b5ca31",
    "matching/enumerate-sim": "dc8c3370b50897c8889b29cb263b73a648cd4c9ab05fc688fa1ec4c4d5789490",
    "matching/solve-seq": "782f9ab5eb72cd8543db86283aa1325ec9307a938e623dd38b292e85f4998b04",
    "matching/solve-sim": "beff22ec6ab16f85254cd1151dd7c0662865c107ed02b6b0178f08a429868d56",
    "matching/verify-seq": "c300594fbe0c333642e4ffce39e11afb2b5cc0b9b84aeb5d8686fd8d362b2c7c",
    "matching/verify-sim": "269f5a914a89404dbe4f45716b9f28e5f057826770a5607bf3fcf665fc76a15a",
    "r1/br-seq": "286038e87fffe65393a56b309ac2b210d6179e6433fa67125586627887fcd9b2",
    "r1/br-sim": "286038e87fffe65393a56b309ac2b210d6179e6433fa67125586627887fcd9b2",
    "r1/enumerate-seq": "12e7b27c36402229b87147cc18588db83f11f6317ec542927511041e28d6071c",
    "r1/enumerate-sim": "9a9d2ff4566b4bbc7e85f5d502aa5cc674e6cf32e3a8264bade1aec113c2e07c",
    "r1/solve-seq": "ee37e9d79cfd86870cc8261a727dca87bfdf86373e65ca262dca03b802575e40",
    "r1/solve-sim": "c77d2979693ee2280ed2b012233be1d07290509888c68a8b2fee6e04627f1cc0",
    "r1/verify-seq": "2689924883660e6ef0ea13f0b9d4d559d68175d8efe9c9df2be1d8fb52794d53",
    "r1/verify-sim": "117b979b6e940e9156cf2f61569ace2417544858e55bb32edb854e767328ebd8",
    "r2/br-seq": "772dd124f63b42ef6c79b56021fc0d9470f1cf0616cb2956e5a30e620a4356ca",
    "r2/br-sim": "f3ae6d0e96644a075b4c81eae3ac1ab3e7a6e89b6102b38f08cb7818c26a2426",
    "r2/solve-seq": "48414c41bce3ba107573d0903a30f1e5b5ba15a0b9aad9f66f72e51ed0ff6f41",
    "r2/solve-sim": "7545fadb1e2af2b76b43ae5064f1e7e741850e4f364d33f63320e9bcc6a998bb",
    "r2/verify-seq": "b226f84194e81b6d55a7b4ab426a307046a6e05767d9091d004d2345ef9340c7",
    "r2/verify-sim": "df001c7cb0c0853b381bef811e8ad37c63192cb87d4a55501f7c8bd7c4f769ca",
    "r3/br-seq": "1d036cd96327e0f2d7a75b1bcc50c4cf36abbbc63d1869e2918bb99d5c700476",
    "r3/br-sim": "c2b18735f4b08db0c4158b1dc16c148e2d313f2d51dba266dcf8b8520a12f1eb",
    "r3/solve-seq": "a52200e36154c7c06dbbfccdc42a5f9649086a9678dbd12af165dcfe8e990c82",
    "r3/solve-sim": "f296391206fdee5045fa308701d84dcb369fc38eba84876d070d13c0a9b256a3",
    "r3/verify-seq": "0af4390513ea583c34f8675f74d909730a51f8d41117049a674c341b76ab462c",
    "r3/verify-sim": "a8965abb28cccd40443732a36b7975164c625438542f5891099682d78388374a",
    "r4/br-seq": "453265fbd54f9ee5e8aa348e13ddf19dcc9672a4b2eb3b9ff48c8d26bcbde96c",
    "r4/br-sim": "453265fbd54f9ee5e8aa348e13ddf19dcc9672a4b2eb3b9ff48c8d26bcbde96c",
    "r4/solve-seq": "0ae8951c813ac582aa4cca56cf7edbab2db801c585ae7ad90a4cb053b87d4bff",
    "r4/solve-sim": "4933894f9f1682a41aa4ba68992324f0da45379fd7c49944efe78dbd21c97f7c",
    "r4/verify-seq": "5fdd35489f8d0046515fc1cef7394ed852269a890f501eb3c314725d9ce44374",
    "r4/verify-sim": "0801d6fd71cfe898df033525810fe87480074cb1a978f130c1b6f8154555447c",
    "rz1/br-zs": "e167a6182491fee4e71840746d9859f4b337fe6e56f2643b907b5f94d9e7ad1b",
    "rz1/br-zs1": "e167a6182491fee4e71840746d9859f4b337fe6e56f2643b907b5f94d9e7ad1b",
    "rz1/solve-zs": "2fd9b2d57251b13e3c0574e07bc1fbeb5033007040e6bd74d28c64d86ac5d6b9",
    "rz1/solve-zs1": "a5ba6ff0f5bebdfafbe252950a48cf1185228b22966acff3c9c4cec135fa260e",
    "rz1/verify-zs": "24b9d44e2ae960b0946250ced8ebf05239c37ec60c0541e591223b47623a5aac",
    "rz1/verify-zs1": "24b9d44e2ae960b0946250ced8ebf05239c37ec60c0541e591223b47623a5aac",
    "rz2/br-zs": "6ac7805de2389d7dd600e3d78bbf7b6b71f062fbe6bad2ad223942115972a42a",
    "rz2/br-zs1": "6ac7805de2389d7dd600e3d78bbf7b6b71f062fbe6bad2ad223942115972a42a",
    "rz2/solve-zs": "f35a31010e089ddbd3b0dfaf33111805456858f102fc199ce89845bb692d7ae5",
    "rz2/solve-zs1": "22f37a7def1762c325eb32f9a75c880c52b0a78ff7900c87c89c1b9668f0c359",
    "rz2/verify-zs": "70fe9234798eceb404a8be143a1ffb8cdfd94cdd9f55b125e5de6a11cccd6410",
    "rz2/verify-zs1": "70fe9234798eceb404a8be143a1ffb8cdfd94cdd9f55b125e5de6a11cccd6410",
    "rz3/br-zs": "f91ff772b5085304825582ac82ee190822b4ec1b906480214560fce0fceb8e85",
    "rz3/br-zs1": "11d81e95f7b46627915f679e539203162ed22a39e6decaa1f4e58159195f0b09",
    "rz3/solve-zs": "3e865613281757eb9d7afa3b99a5678049372a2a39220cf939fad11b16c324c1",
    "rz3/solve-zs1": "5eff2febd68956cc53cb7be431fa6eff7164b46df52b31fd44ddbf792a5428ab",
    "rz3/verify-zs": "2926a03ee54649a5e5d2351d6d073f180d599d8fb8b401c60f24cc1ba7eff346",
    "rz3/verify-zs1": "0da0abbbc9e234bca1ce1c71e3dd47de195b2d9a6811555e4be1e1c3cb619127",
    "z1/br-zs": "7b7112e370d1e34458e879769bef75033aee2c936d244904d14e003b529a903b",
    "z1/br-zs1": "1740d60ca4625ddcb0b8b92efa48172c1fa84aea6bc06e3462a5ce491a789668",
    "z1/solve-zs": "49df21523738fe79d097bc5a990c7c50f65e24429828bc06b0401b0a6ba88750",
    "z1/solve-zs1": "d3e0240a6eb36f0332cb6c532447328be3e740f5ae143031cee12ac37df77936",
    "z1/verify-zs": "51183e9b7887da1e13a16149c63bad42c7ad8e024e1cdf28cefc879060124d67",
    "z1/verify-zs1": "53e28ce0e9a6a90b2b9bf558d4ca064b073aa3abb000dd9f93d38a6c885bea3d",
    "z2/br-zs": "d1023445254f330b7ff1c4961c19a3d140994caaabfd8d6ddf40cdf91156a3cf",
    "z2/br-zs1": "ea2320185000eafc30cc502a30ed827b448a5c0c60743b1e2fac54fdb80ea31d",
    "z2/solve-zs": "dbe0a09eddf57e1570c4daa7523273ada5042187b1fd7623adf08cfed0de219a",
    "z2/solve-zs1": "98a189832187613b951405491c03e7adf14117a9353ef1f9017a0ba49e418bb2",
    "z2/verify-zs": "3919bddd399bf96d89e380140012a22b6bdabb8360fdb7609d970ab7d99572ad",
    "z2/verify-zs1": "4c82c0455c5ade6928a7aa2aacc23388e2e3c766cea7edcdf8570741aad736da",
    "z3/br-zs": "c7fc330d8ee54c831b38da95c7f087a04bd90b36172a4f7ebb744b2cf0434246",
    "z3/br-zs1": "c7fc330d8ee54c831b38da95c7f087a04bd90b36172a4f7ebb744b2cf0434246",
    "z3/solve-zs": "923f41336577affd750693c63b11283c93180a5a5875006b994943c52854a6dc",
    "z3/solve-zs1": "a8e3dba71c2be70e52bb7a0ebf2aa2e9cea03537348dc2883ff6b914286e33c7",
    "z3/verify-zs": "8551dec415101671cbfc4148c5bec9806fab9a9d18919c34accf17b9a1c132c7",
    "z3/verify-zs1": "8551dec415101671cbfc4148c5bec9806fab9a9d18919c34accf17b9a1c132c7",
    "z4/br-zs": "739a68d9716470abc68588cb3ac8184ad5d892b1ac525108f253824bb3ac7f6c",
    "z4/br-zs1": "c5c5bbeeacfb034248b867c875f5cf0765ad217fc2c7cde08f3379bad797afa6",
    "z4/solve-zs": "fc75f43ed0206c3f43be161fe9a69f899e2aaf90d0023943c853b9f40918d709",
    "z4/solve-zs1": "7f3e606cf52e3dccca355b7f3ed2f25bdc7d47d1c416b9d639935f8ad28317e0",
    "z4/verify-zs": "35a9233665b557c270d808fed162c40986b550651b9da9770a75639bf8c8796e",
    "z4/verify-zs1": "de858bf941b22724579c1ff9eea07ab5180df5efb821a97e93eae0372a37cec8",
    "z5/br-zs": "eb9d6e91ab518f5f7f2e82a85bf47220601a390dde099f36582cd141af63b077",
    "z5/br-zs1": "eb9d6e91ab518f5f7f2e82a85bf47220601a390dde099f36582cd141af63b077",
    "z5/solve-zs": "a3d104f1c36e4fc8f2b2da5b27093312dc1d285f7161fc6bb9fe29924d120357",
    "z5/solve-zs1": "41a93598824f0346e463627fb2fe096a5f76ae427f272c7a316430841e01b800",
    "z5/verify-zs": "6982c83e0556fd0ccf6d52a3f80e3589b1dcc5b8e336e4e97180b90f202f4acf",
    "z5/verify-zs1": "6982c83e0556fd0ccf6d52a3f80e3589b1dcc5b8e336e4e97180b90f202f4acf",
}


def _corpus():
    yield "matching", gamefile.load_bundled("matching_times"), False
    for name, horizon, branching, seed, zero_sum, rounded in GENERATED:
        doc = gamefile.generate_random_game(
            horizon, branching, seed, zero_sum=zero_sum, name=name
        )
        if rounded:
            doc = map_payoffs(doc, lambda k, v: round(v))
        yield name, doc, zero_sum


def _cli(argv: list[str], profile: str | None) -> tuple[str, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out)
    data = b""
    if profile is not None and os.path.exists(profile):
        with open(profile, "rb") as fh:
            data = fh.read()
    blob = b"\0".join(
        [str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), data]
    )
    return hashlib.sha256(blob).hexdigest(), data


def _br_bits(doc, mode: str, profile_text: bytes, sigma: int) -> str:
    tree = doc.tree
    field = doc.zero_sum_field() if mode == "zs" else doc.payoff_field()
    profile = gamefile.profile_from_json(tree, profile_text.decode(), mode)
    not_before = constant_stopping_time(tree, sigma) if mode == "zs" else None
    report = check_equilibrium(field, mode, profile, not_before=not_before)
    bits = " ".join(v.hex() for v in report.br_values)
    return hashlib.sha256(bits.encode()).hexdigest()


def compute_digests(workdir: str) -> dict[str, str]:
    digests: dict[str, str] = {}
    for name, doc, zero_sum in _corpus():
        game = os.path.join(workdir, f"{name}.json")
        gamefile.save(doc, game)
        if zero_sum:
            solves = [("zs", 0), ("zs", 1)]
        else:
            solves = [("sim", 0), ("seq", 0)]
        for mode, sigma in solves:
            tag = f"{mode}{sigma}" if sigma else mode
            prof = os.path.join(workdir, f"{name}-{tag}.profile.json")
            argv = [f"solve-{mode}", game, "--profile-out", prof]
            if sigma:
                argv += ["--sigma", str(sigma)]
            digests[f"{name}/solve-{tag}"], data = _cli(argv, prof)
            argv = ["verify", game, "--profile", prof, "--mode", mode]
            if sigma:
                argv += ["--sigma", str(sigma)]
            digests[f"{name}/verify-{tag}"], _ = _cli(argv, None)
            if data:
                digests[f"{name}/br-{tag}"] = _br_bits(doc, mode, data, sigma)
        if not zero_sum and doc.horizon <= 1:
            for mode in ("sim", "seq"):
                argv = ["enumerate", game, "--mode", mode]
                digests[f"{name}/enumerate-{mode}"], _ = _cli(argv, None)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(str(tmp_path_factory.mktemp("golden")))


def test_corpus_matches_golden_table(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(digests, case):
    assert digests.get(case) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = compute_digests(tmp)
    for case in sorted(table):
        sys.stdout.write(f'    "{case}": "{table[case]}",\n')
