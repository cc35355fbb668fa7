"""Golden pins for the catalog: the stdout and exit code of ``build`` and
``verify`` for one name per family and for every name built through
complex arithmetic, and the table behind the names.

The digests pin stdout byte for byte, so any change in what a name builds
or checks shows here.
"""

import hashlib
import json

import pytest

from regmaps import catalog, cli
from regmaps.ratmap import RationalMap

VERIFY_FLAGS = ["--samples", "50", "--trials", "5", "--seed", "0"]

# name: (sha256 of `build` stdout, exit code, sha256 of `verify` stdout, exit code)
GOLDEN = {
    "stereo:2": (
        "306291a0bcdcbe2834e195b64c92430b569d0f82dc8467412439dc56537ba15a", 0,
        "aa49f599ec242ee63271ae811c0b69e5d98683bcb6ecd9cc29b7787c35334f92", 0,
    ),
    "stereo-inv:2": (
        "24a328e1c0d96ed9eb27d4f66801b3397aaf1f48d303b272436b7bacfa7ba0f8", 0,
        "5642b54c3c0923ad14b6e9b2127300fc3ebd849430cdd58fdf3322f32359adc7", 0,
    ),
    "oplus:2": (
        "e0933287fa41238bddb2346d0dc313108b82320b737702f862b54f807c2b457a", 0,
        "2ba079a57b853c4ac9f0d24d822d5245ad2d3505ca88e0e995bc01ce88978616", 0,
    ),
    "reflect:3:2": (
        "4455b0a4fdebac54c77ccf75d6613615ef319a5db667bd43db7c91664548d89b", 0,
        "33194c567b603da67b5b99b236c5380cd3fa344b902e15fecf90a2fccf1fd292", 0,
    ),
    "phi:2": (
        "ed20d52de5f30b301d7dd551d0b4a7cc32a235acb38d9949281dfa6ff9794323", 0,
        "3b50f78a618a9852802501d6cceb98569bae25849791ee6df6741d39efbdc3c8", 0,
    ),
    "zpow:-3": (
        "d9c5bb77bd43a4ae36fc386689816412d0ef80eaff32783edad3940bcc3b936d", 0,
        "be7f3e33aa675b77e3b3daed68c9d4c489791636128804f1d23f2f21df70e5c2", 0,
    ),
    "zpow:0": (
        "e1745422c7041f60e370c4e693503ae4d67a0d0cd0051e13b0f08ce28229bb00", 0,
        "485e1f1846288c3aed32a4358629192ccdd17b890ce2bcb940235fac5824b2b1", 0,
    ),
    "zpow:3": (
        "101930cb327e72f16f0068c92c5666f6ec73d295929ea8fb5ade3948e8a7e7be", 0,
        "01be81a0a5ff379c9632039587c6b8de927225ff75a00254d59e9faaa9c1fb8f", 0,
    ),
    "rot:3/5:4/5": (
        "16823416962727c5cc8b1753fafbe140c1a5d3fef0bee7f8b65e798fb2272d22", 0,
        "0c34c5d895c036d12132fac391118ad996e8675bb6552f59068e7435e3d295de", 0,
    ),
    "id:2": (
        "1630e8a807418094e415eea221ab1ae63ae7c7f8d54c64842ca3ee4fe8b5611a", 0,
        "0c34c5d895c036d12132fac391118ad996e8675bb6552f59068e7435e3d295de", 0,
    ),
    "antipodal:2": (
        "3536aaaac60e0c3e9294e4af48c42192cb10246c9a4d9617a483ea54c785d850", 0,
        "0c34c5d895c036d12132fac391118ad996e8675bb6552f59068e7435e3d295de", 0,
    ),
    "p:3": (
        "c6ea4e8a2d96b6a73dfe8df01c512c1ab911c818b304f0f10d336ba783f8495c", 0,
        "c2599c8c2d2a0d0bb4e1355700198a1193a70d218835b654505a0d5baa360295", 0,
    ),
    "s:3": (
        "554567ff36262828e92ce6e66137ec49a507bcade6536598a059f59c215099fa", 0,
        "64ab82699bd0868b3b69fd459244912e11ad09a5fecb8ea32960b239823df206", 0,
    ),
    "p-u:1": (
        "d7257cb165eafd9fc8ccce966624156ea7284d524d0012ac6afde3c7669281ab", 0,
        "c2599c8c2d2a0d0bb4e1355700198a1193a70d218835b654505a0d5baa360295", 0,
    ),
    "p-u:2": (
        "412a16823dc979cb196589e45ef9bed93dae06df6f938f44eeb9908fc6890719", 0,
        "c2599c8c2d2a0d0bb4e1355700198a1193a70d218835b654505a0d5baa360295", 0,
    ),
    "s-u:1": (
        "ee8962e9b1914b05895099ed5a1f28ef80fcda55701d6fea7c8fc751d54c3d95", 0,
        "6d25e9a9fd14afad20bc0673cd563ff88552a7d01c0cf1bba1cabf6ce5696401", 0,
    ),
    "s-u:2": (
        "8731b93f5ed609a09c485d1f62ce429b49aed6a537079fa6b172a75816e26159", 0,
        "de9635b20724c5b6abf64a8d57f4172c004e9dc4a23a8e9f688349e4a5a4c41e", 0,
    ),
    "s-u:3": (
        "e6e894d62526b234876cbb245b3b06b8a7c380d8ef55486df5d66cc0b572c925", 0,
        "751e4aae18c77e2dd6768a337ff9e04c5d61f560f6bf8bc2e755e426f37d5c09", 0,
    ),
    "r:3": (
        "03120fba6ed0047b21f306c65e8f3f653de2085199ab75031fd8302ca8c69395", 0,
        "c72ebe97a1ce2e9133a3f1f75c594bb5a0a006e188ef8ab3af25d4440433a1da", 0,
    ),
    # verify r-u:1 exited 2 before its fixed-subgroup check handled the trivial U(0).
    "r-u:1": (
        "c10f1961c62b7521e46c699f450c5b929631a8f1a75206510c981838e6b8f269", 0,
        "60b6d84e8d40acc961cd97cb497178a7c0846094610ac18a0989456a3751766f", 0,
    ),
    "r-u:2": (
        "c8ae1311c08461d5f4d05824ee7a4360c120fb76eaeab4c0ac330b3bd0913de4", 0,
        "c72ebe97a1ce2e9133a3f1f75c594bb5a0a006e188ef8ab3af25d4440433a1da", 0,
    ),
    "r-u:3": (
        "2e63540547e1f98bc87e70a2f70bff2449a1efcca1eacc4cd841d7fad563f066", 0,
        "c72ebe97a1ce2e9133a3f1f75c594bb5a0a006e188ef8ab3af25d4440433a1da", 0,
    ),
    "chain:4:2": (
        "56c07d602557ddeac4d49edffc166c215c90916a951cf72b5f8e466b624b2e0e", 0,
        "9276186bb2ca6012362b67955f97f31ada7093d2f16320688e461cbae0d1da10", 0,
    ),
    "su-retract:1": (
        "27852302dccfbb790ee2bd5445bdbfeacb14ae34a342dfcec29f80ff435ef106", 0,
        "b52386a0ca4690015fc51e35e06d5d63c808813d51b9a0cde48953dc024e637a", 0,
    ),
    "su-retract:2": (
        "79ca1411cab6ceff12d2c9d51a464f6d97a0faee886fe2538a1e40bdaf99435d", 0,
        "b52386a0ca4690015fc51e35e06d5d63c808813d51b9a0cde48953dc024e637a", 0,
    ),
    "su-retract:3": (
        "8515af049b5627fa13471d360f5acce877da59b710935cbbe02a5ef8ac2ae61a", 0,
        "b52386a0ca4690015fc51e35e06d5d63c808813d51b9a0cde48953dc024e637a", 0,
    ),
    "embed-u:1": (
        "db7c85068589ade310a517df1d131dd1b0dee61c73aec14604968ca269be0f36", 0,
        "34f3f6fd060ee7b7df9d2b0b9e81aafab7548797b2bac0f4fe47fc0837101d64", 0,
    ),
    "embed-u:2": (
        "d957eeb986774ac9ef7691868c974e5effaa6f8d36a00ba45010a69de9c053e8", 0,
        "34f3f6fd060ee7b7df9d2b0b9e81aafab7548797b2bac0f4fe47fc0837101d64", 0,
    ),
    "embed-u:3": (
        "1a895438a3892ed380a7354168cc8361d4638ec20bf3975dda955104f8c76bef", 0,
        "34f3f6fd060ee7b7df9d2b0b9e81aafab7548797b2bac0f4fe47fc0837101d64", 0,
    ),
    "jmap:identity:1:2": (
        "99681548c86f85e1578924d21453b2dfd331723cbc808fbe42a576461d0f40c6", 0,
        "88c1b8bf36fa9818caaec2a2c8eafba7d63813ba36a8c4701d8e41c78ec9a83d", 0,
    ),
    "jmap:rotation": (
        "0f518e0e3e1ddea1d475ae98e455879972c2abb9a193df2ea4f6d368a8817b94", 0,
        "abbf8fbd5cb12b74f654c28992e0acc56502b8b895cd458ec0ab5bfe8a2fbe41", 1,
    ),
    "jmap:double-rotation": (
        "aebdbe87c6e77256d84d66272aaa4acb56a7e3fe2d3d66e5ef71c7c415696a3a", 0,
        "88c1b8bf36fa9818caaec2a2c8eafba7d63813ba36a8c4701d8e41c78ec9a83d", 0,
    ),
}

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
