"""Golden pins for the catalog: the stdout and exit code of ``build`` and
``verify`` for one name per family and for every name built through
complex arithmetic, of ``compose`` for one composite and ``build`` of a
family file, of ``eval`` at sampled points of the group maps, and the table
behind the names.

The digests pin stdout byte for byte, so any change in what a name builds
or checks shows here.
"""

import hashlib
import json

import pytest

from regmaps import catalog, cli
from regmaps.groups import jmap_double_rotation, jmap_input_to_obj
from regmaps.ratmap import RationalMap

VERIFY_FLAGS = ["--samples", "50", "--trials", "5", "--seed", "0"]

# name: (sha256 of `build` stdout, exit code, sha256 of `verify` stdout, exit code)
GOLDEN = {
    "stereo:2": (
        "306291a0bcdcbe2834e195b64c92430b569d0f82dc8467412439dc56537ba15a", 0,
        "527f6478c6e450f9b57d00938520aaa172b9f704da8c800f4e56aafc667df31d", 0,
    ),
    "stereo-inv:2": (
        "24a328e1c0d96ed9eb27d4f66801b3397aaf1f48d303b272436b7bacfa7ba0f8", 0,
        "d50130d1b61ba5f644e1b7fcb3cffd592585ca628a029c78da2aa61f88307a8f", 0,
    ),
    "oplus:2": (
        "e0933287fa41238bddb2346d0dc313108b82320b737702f862b54f807c2b457a", 0,
        "52ba2554327c2c67503c1ce110da04aef4c9c99ea8de1514381075e7d8218be8", 0,
    ),
    "reflect:3:2": (
        "4455b0a4fdebac54c77ccf75d6613615ef319a5db667bd43db7c91664548d89b", 0,
        "f16544765f0fe776945bd1d4688de92c8b923179b08fd73cfecc047a639971f0", 0,
    ),
    "phi:2": (
        "ed20d52de5f30b301d7dd551d0b4a7cc32a235acb38d9949281dfa6ff9794323", 0,
        "737c37c3072c385b578ceb72a9764914ae5add44d494baea3dd74f33088ce51b", 0,
    ),
    "zpow:-3": (
        "d9c5bb77bd43a4ae36fc386689816412d0ef80eaff32783edad3940bcc3b936d", 0,
        "ea996f7a655fb9cdef38187baf77e9c7c12b25ea17192253e6fd1f7ab66e2576", 0,
    ),
    "zpow:0": (
        "e1745422c7041f60e370c4e693503ae4d67a0d0cd0051e13b0f08ce28229bb00", 0,
        "21f21d2dd6a6c7043d19586d25a7ba91d0b56eea1c7f1f11f1958dad5bbf5e4d", 0,
    ),
    "zpow:3": (
        "101930cb327e72f16f0068c92c5666f6ec73d295929ea8fb5ade3948e8a7e7be", 0,
        "6672c48a83bc831d1d944b686535bc502243debd8d25feda397fdc975fbab167", 0,
    ),
    "rot:3/5:4/5": (
        "16823416962727c5cc8b1753fafbe140c1a5d3fef0bee7f8b65e798fb2272d22", 0,
        "9d7f122add2508cd3712b2f1425bae45b43414b49246f1baf61bc6bc584e9b9a", 0,
    ),
    "id:2": (
        "1630e8a807418094e415eea221ab1ae63ae7c7f8d54c64842ca3ee4fe8b5611a", 0,
        "9d7f122add2508cd3712b2f1425bae45b43414b49246f1baf61bc6bc584e9b9a", 0,
    ),
    "antipodal:2": (
        "3536aaaac60e0c3e9294e4af48c42192cb10246c9a4d9617a483ea54c785d850", 0,
        "9d7f122add2508cd3712b2f1425bae45b43414b49246f1baf61bc6bc584e9b9a", 0,
    ),
    "p:3": (
        "c6ea4e8a2d96b6a73dfe8df01c512c1ab911c818b304f0f10d336ba783f8495c", 0,
        "97fd5b8d7cda66a656b29b51d30044804f1e56b6335e831273a385a5e0bca5c6", 0,
    ),
    "s:3": (
        "554567ff36262828e92ce6e66137ec49a507bcade6536598a059f59c215099fa", 0,
        "c4e5b6518898cffd3436f011635c4354719cc25d4d58fad555205a270e6cbdbb", 0,
    ),
    "p-u:1": (
        "d7257cb165eafd9fc8ccce966624156ea7284d524d0012ac6afde3c7669281ab", 0,
        "97fd5b8d7cda66a656b29b51d30044804f1e56b6335e831273a385a5e0bca5c6", 0,
    ),
    "p-u:2": (
        "412a16823dc979cb196589e45ef9bed93dae06df6f938f44eeb9908fc6890719", 0,
        "97fd5b8d7cda66a656b29b51d30044804f1e56b6335e831273a385a5e0bca5c6", 0,
    ),
    "s-u:1": (
        "ee8962e9b1914b05895099ed5a1f28ef80fcda55701d6fea7c8fc751d54c3d95", 0,
        "dff75cafdb205a228ee02674657338890dedd55d740831907535403e293479f8", 0,
    ),
    "s-u:2": (
        "8731b93f5ed609a09c485d1f62ce429b49aed6a537079fa6b172a75816e26159", 0,
        "58bdde7997cb123666bdb131e9a25a18cc3af6c03e6ab0620d7ad1c8c79a3f71", 0,
    ),
    "s-u:3": (
        "e6e894d62526b234876cbb245b3b06b8a7c380d8ef55486df5d66cc0b572c925", 0,
        "999091f0de1cb5258c0ae3c4f2e5db91c55d2f4fbe3df056c9eb21534d7cc094", 0,
    ),
    "r:3": (
        "03120fba6ed0047b21f306c65e8f3f653de2085199ab75031fd8302ca8c69395", 0,
        "f032fef466e73fe173681e87ef7b74649cede3b4ffc0283e994b2f0d9924da50", 0,
    ),
    # verify r-u:1 exited 2 before its fixed-subgroup check handled the trivial U(0).
    "r-u:1": (
        "c10f1961c62b7521e46c699f450c5b929631a8f1a75206510c981838e6b8f269", 0,
        "5885e0cb9d2ecc90d755446792c26ebfd0b33a5f0a57e135f71d24c25c155f2c", 0,
    ),
    "r-u:2": (
        "c8ae1311c08461d5f4d05824ee7a4360c120fb76eaeab4c0ac330b3bd0913de4", 0,
        "f032fef466e73fe173681e87ef7b74649cede3b4ffc0283e994b2f0d9924da50", 0,
    ),
    "r-u:3": (
        "2e63540547e1f98bc87e70a2f70bff2449a1efcca1eacc4cd841d7fad563f066", 0,
        "f032fef466e73fe173681e87ef7b74649cede3b4ffc0283e994b2f0d9924da50", 0,
    ),
    "chain:4:2": (
        "56c07d602557ddeac4d49edffc166c215c90916a951cf72b5f8e466b624b2e0e", 0,
        "d35ef460cd146342ada7a8e40b8b745d70abbebadbbe73ffef3245f3e5c442fb", 0,
    ),
    "su-retract:1": (
        "27852302dccfbb790ee2bd5445bdbfeacb14ae34a342dfcec29f80ff435ef106", 0,
        "d13b2ba9db377f5cc1d46955892555bbd293c3aa03aefdf92e536bbcb44a7a51", 0,
    ),
    "su-retract:2": (
        "79ca1411cab6ceff12d2c9d51a464f6d97a0faee886fe2538a1e40bdaf99435d", 0,
        "d13b2ba9db377f5cc1d46955892555bbd293c3aa03aefdf92e536bbcb44a7a51", 0,
    ),
    "su-retract:3": (
        "8515af049b5627fa13471d360f5acce877da59b710935cbbe02a5ef8ac2ae61a", 0,
        "d13b2ba9db377f5cc1d46955892555bbd293c3aa03aefdf92e536bbcb44a7a51", 0,
    ),
    "embed-u:1": (
        "db7c85068589ade310a517df1d131dd1b0dee61c73aec14604968ca269be0f36", 0,
        "59a3d14ae2e9bb54599cd7ba4b6cc9394c6b2884f1b4448430c618ba182d5b51", 0,
    ),
    "embed-u:2": (
        "d957eeb986774ac9ef7691868c974e5effaa6f8d36a00ba45010a69de9c053e8", 0,
        "59a3d14ae2e9bb54599cd7ba4b6cc9394c6b2884f1b4448430c618ba182d5b51", 0,
    ),
    "embed-u:3": (
        "1a895438a3892ed380a7354168cc8361d4638ec20bf3975dda955104f8c76bef", 0,
        "59a3d14ae2e9bb54599cd7ba4b6cc9394c6b2884f1b4448430c618ba182d5b51", 0,
    ),
    "jmap:identity:1:2": (
        "99681548c86f85e1578924d21453b2dfd331723cbc808fbe42a576461d0f40c6", 0,
        "83978eaff9bf082734f42d9ad285ad3323ca6e5518fc9114449b6cf164c62a9a", 0,
    ),
    "jmap:rotation": (
        "0f518e0e3e1ddea1d475ae98e455879972c2abb9a193df2ea4f6d368a8817b94", 0,
        "b106a12694267dda2d2b9b933942b4f2d37c4bd4d6ac10c0fe92163af62f0708", 1,
    ),
    "jmap:double-rotation": (
        "aebdbe87c6e77256d84d66272aaa4acb56a7e3fe2d3d66e5ef71c7c415696a3a", 0,
        "83978eaff9bf082734f42d9ad285ad3323ca6e5518fc9114449b6cf164c62a9a", 0,
    ),
}


# name: (sha256 of `build` stdout, exit code) for maps over large registries,
# where most monomials have one or two nonzero exponents among hundreds of
# variables, and for the two largest group expansions the benchmark builds.
# Only `build` is pinned: `verify jmap:identity:40:40` alone takes tens of
# seconds.
BUILD_GOLDEN = {
    "id:500": ("09f65723896818a3544e9a8c8d1cd331a395b98e0d6d763ed6cf6e9455ecb1f6", 0),
    "antipodal:500": ("3c2fd7a2bae6db82e3d25ab3394b0a04ed24cecbaf525ca4bf9db49864b34bd2", 0),
    "stereo-inv:60": ("e1e4dfedee2b6cc775b86fea4443846b52aae423867e9bd3115fffb2f39999d8", 0),
    "oplus:20": ("462bbef5bf73a945aefdf33f897372ebdfbd2f95a81ea753fda483a676f806b1", 0),
    "jmap:identity:40:40": (
        "116028302fda600d24f3f4b503a5e2403dce5217580b21dc05c8ab4b0841ca1b", 0,
    ),
    "chain:5:3": ("feb8f45c99b041539e3e088d9cc1e58ae8b1eb7829f9024e3c9dcabbe001bc44", 0),
    "s-u:4": ("73e69ee745b816a6049e4945d9826fe5898b10c1e9a5c8132ed65cd94510a4ea", 0),
}

# (sha256 of `compose stereo-inv:3 stereo:3` stdout, exit code): a composite,
# expanded only to be written out.
COMPOSE_GOLDEN = ("200d1d3ba57628f23dbd2b645e00187e00358888b945a9ad2b1109f0fa393481", 0)

# A family label the writer must escape: a quote, a backslash and non-ASCII
# characters, and (sha256 of `build jmap:<file>` stdout, exit code) for the
# double-rotation family under that label.
ESCAPED_LABEL = 'say "\\x" \u00e9t\u00e9 \u2192 \u00b2'
ESCAPED_LABEL_GOLDEN = ("da8e28dc310ec07221b6877485f8d1d9f1d41af0331499096ff433d09b5ad36d", 0)


# (name, seed): (sha256 of `eval NAME --seed SEED` stdout, exit code).  Group
# maps, staged and expanded, real and complex, at two sampled points each;
# the two chain maps the benchmark evaluates at seeds 0-3; maps on a sphere
# product, a sphere and into SO(6) from S^5 at two grid-drawn points each.
EVAL_GOLDEN = {
    ("r:3", 0): ("0cabbb0a8dc80c56a74a9359e6834abb8fffc640a458485e0368c13fc727fd59", 0),
    ("r:3", 3): ("6385776a44b0347267159556159365fea59ae6c960f37ea70f186f69a9a7cf48", 0),
    ("r:4", 0): ("4f0c1f3e9be2f8506f9bf54517c78b27fe4d58df079f33129f2656014c779d5b", 0),
    ("r:4", 3): ("3d6541141be2e37ec075c9185246abcb31b1b7f98790fa3ffab89d08005931ef", 0),
    ("r-u:2", 0): ("5ce5e8732c4c0793d588ffe328e52f998c923ab74ee66e49d93ff90c5a812e67", 0),
    ("r-u:2", 3): ("0dca76cf6e0928511f75eff1ab778fefc0301249761d01c4cf29fed3a0d4a6f4", 0),
    ("r-u:3", 0): ("6b7712d3fc57c1c35f9322da470ae563cd492e3e6690fc5c3443cc8615939e4b", 0),
    ("r-u:3", 3): ("cbfe0e3c5feaa4395bbbc21e22412ba5d06f579493dc2d64abc1bed6e48808d7", 0),
    ("su-retract:2", 0): ("1bc66295966f3a0be805e0e4dfd5518012b8e165cb84fde8a011d8436a41f77b", 0),
    ("su-retract:2", 3): ("db003147a2818cc21e3b51e7c6f30739d9bd7871839a3de98e43dd323b78df0e", 0),
    ("su-retract:3", 0): ("e15d1b8aacd2e30cc7a40b17737a5b88d990c401f9e686c6f5f09549906ab84f", 0),
    ("su-retract:3", 3): ("bc39570f4affe06699d3014b0bcc5dce47cdf54158dbfec4b45dd60295a7d160", 0),
    ("embed-u:2", 0): ("638e3b208e13c2c75fdd34df1ee371b58718bcc343866439849379baec5ac59d", 0),
    ("embed-u:2", 3): ("34d3ae5f8a8d74a4f40b7edc95761506fd2af9840f42b18ea0930b3be630ec2c", 0),
    ("p:4", 0): ("7227d26533c0e717a687500c5da6b8fb80bec2e125b2bc67cb4906392f700c55", 0),
    ("p:4", 3): ("35c6fceb2e00bd7399178949d89a7bbdb2e091c7901e8a0314766bb35eb5fb6c", 0),
    ("p-u:2", 0): ("748a395469b746d036369078d25fc1bed6d7a4e80323dd30bc52db0f2ea2e7a0", 0),
    ("p-u:2", 3): ("fd534c14a75fb8650409d62128bf925b57f9a99ab3b5a2d2a7c7499a0d46f078", 0),
    ("chain:4:2", 0): ("01f097b77357f63b14b24de5d52afaf46ce901540ff698d91e829dcc22a7768d", 0),
    ("chain:4:2", 1): ("8bd166480a6ec743f9e2f447a72b512fae7cfb2d6dedcd363af2b47c128b4248", 0),
    ("chain:4:2", 2): ("1e57aa87cab697fdc4eda01a53c04fbc387cafb71a3ed4ea11d38dfe588728fe", 0),
    ("chain:4:2", 3): ("26377d5f7224b3399651b8ffc1d01a8f36f27145d683ee63674c03af6bb4cfde", 0),
    ("chain:5:3", 0): ("ec44158d13205fea6b0f0edca420d104d5c43ecb0c40e7540dda0706223fb442", 0),
    ("chain:5:3", 1): ("ceebfae0aeb1b87128a97def2d302cf745708dfd9a717114fcbba0225e8836af", 0),
    ("chain:5:3", 2): ("ac4838a43fd6fc11fb72df3a61c9f5a088e9ab218695e170e204a16dddf38b94", 0),
    ("chain:5:3", 3): ("d3e14c70ef2257bc556c55b5b9d5a0a2f74a42152b1df71e7473e1f3a1468e4e", 0),
    ("chain:6:2", 0): ("7ff4f34e04aaedc792fc0c1ac2ff30c7f74550501f80c30d49121a7788879d97", 0),
    ("chain:6:2", 3): ("4a73b4f8406da9e36a7445be8f40cfa63ac8ae5eacec20b91e9a627389046e66", 0),
    ("oplus:3", 0): ("59b14544706579774bfb407b28064fe8205fea67e78cd339d14f116a888925d4", 0),
    ("oplus:3", 3): ("b5612db0ccc3ecd1fc3a66f21e1163096997ad70bc011b54ff680cae4c5b1ff1", 0),
    ("stereo:5", 0): ("b9e96e830e4d5986b9304ea53f2edfcf17f9238cca5c29ae89cc8dd1137e4c5a", 0),
    ("stereo:5", 3): ("24d013dcf2c5ce1ee6c3eecfe3ba6c5613a74ed4a97a69532776fcc7a1bf624c", 0),
    ("phi:4", 0): ("033cbe3a4b70386a1fd3bfeeae4bfc0b758956457eb5d087bf5f16e2cec03fa9", 0),
    ("phi:4", 3): ("a5eeb36433413ad73aceb5693c21b2d7cf5b630f4cbc6c707b14b3200e4a8d6d", 0),
    ("s:6", 0): ("802ec2774bd5c8410ffc278fa95a0819978b442c9e981e29e77625ecc4682a94", 0),
    ("s:6", 3): ("e0c27c8d225e3b3dcc65fa7623e1d8f283b91265b21758ae891363396bcc1775", 0),
}

# The kinds of evidence a check may state, strongest first.
VERDICT_METHODS = ("symbolic", "exact-evaluation", "sampling")

# The `--help` epilog: every name form, sorted.
EPILOG = (
    "Map names: antipodal:n, chain:m:k, embed-u:k, id:n, jmap:<file>, "
    "jmap:double-rotation, jmap:identity:n:k, jmap:rotation, oplus:n, p-u:k, p:n, "
    "phi:k, r-u:k, r:n, reflect:n:j, rot:c:s, s-u:k, s:n, stereo-inv:n, stereo:n, "
    "su-retract:k, zpow:d"
)

# sha256 of json.dumps(NAME_FORMS, sort_keys=True): the forms and their help text.
NAME_FORMS_SHA256 = "a28c4885c130ed46d89702b910879fcb94b3d75a60359499260ea416854d9761"


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_and_verify_match_the_golden_output(capsys, name):
    build_sha, build_code, verify_sha, verify_code = GOLDEN[name]
    assert _run(capsys, ["build", name]) == (build_sha, build_code)
    assert _run(capsys, ["verify", name, *VERIFY_FLAGS]) == (verify_sha, verify_code)


@pytest.mark.parametrize("name", sorted(BUILD_GOLDEN))
def test_build_of_a_large_registry_map_matches_the_golden_output(capsys, name):
    assert _run(capsys, ["build", name]) == BUILD_GOLDEN[name]


def test_compose_matches_the_golden_output(capsys):
    assert _run(capsys, ["compose", "stereo-inv:3", "stereo:3"]) == COMPOSE_GOLDEN


def test_build_of_a_family_file_escapes_its_label(capsys, tmp_path):
    obj = {**jmap_input_to_obj(jmap_double_rotation()), "label": ESCAPED_LABEL}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert _run(capsys, ["build", f"jmap:{path}"]) == ESCAPED_LABEL_GOLDEN
    cli.main(["build", f"jmap:{path}"])
    out = capsys.readouterr().out
    assert out.isascii() and json.loads(out)["label"] == ESCAPED_LABEL


@pytest.mark.parametrize("name, seed", sorted(EVAL_GOLDEN))
def test_eval_matches_the_golden_output(capsys, name, seed):
    assert _run(capsys, ["eval", name, "--seed", str(seed)]) == EVAL_GOLDEN[name, seed]


def test_eval_rejects_a_reflection_with_its_residual(capsys):
    # orthogonal with determinant -1: only the determinant check of SO(3) fails
    assert cli.main(["eval", "r:3", "--point=-1,0,0,0,1,0,0,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coordinates violate a relation of SO3: residual -2\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_verify_check_states_its_method(capsys, name):
    cli.main(["verify", name, *VERIFY_FLAGS])
    for check in json.loads(capsys.readouterr().out):
        assert check["info"]["method"] in VERDICT_METHODS, check
        # `passed` carries the result; the evidence does not repeat it.
        assert not {"ok", "equal", "all_positive"} & set(check["info"]), check


@pytest.mark.parametrize("name", ["s:4", "s-u:2", "oplus:2"])
def test_a_suite_reports_the_membership_its_map_proved_at_construction(monkeypatch, name):
    proof = catalog.resolve(name).codomain_proof
    assert proof is not None and proof.method == "symbolic"
    monkeypatch.setattr(catalog, "maps_into", None)  # proved once, not again
    checks = catalog.verification_suite(name, trials=3, samples=20)
    assert checks[0].name == "maps-into-codomain"
    assert (checks[0].method, checks[0].passed, checks[0].evidence) == (
        "symbolic", True, proof.evidence
    )


def test_the_winding_check_is_symbolic():
    checks = catalog.verification_suite("zpow:3", trials=5, samples=50)
    winding = [c for c in checks if c.name == "winding-equals-exponent"]
    assert [c.method for c in winding] == ["symbolic"]


def test_every_family_prefix_resolves_at_its_smallest_example():
    prefixes = {form.split(":")[0] for form in catalog.NAME_FORMS}
    assert prefixes == set(catalog.FAMILIES)
    for prefix in sorted(prefixes):
        examples = [name for name in GOLDEN if name.split(":")[0] == prefix]
        assert examples, f"no golden example for family {prefix!r}"
        assert isinstance(catalog.resolve(min(examples, key=len)), RationalMap)


def test_name_forms_and_epilog_are_unchanged():
    digest = hashlib.sha256(json.dumps(catalog.NAME_FORMS, sort_keys=True).encode())
    assert digest.hexdigest() == NAME_FORMS_SHA256
    assert cli._build_parser().epilog == EPILOG == "Map names: " + ", ".join(
        sorted(catalog.NAME_FORMS)
    )


def test_unknown_family_lists_the_known_forms():
    with pytest.raises(catalog.UnknownMapError, match="known forms: antipodal:n, chain:m:k"):
        catalog.resolve("nosuch:3")
