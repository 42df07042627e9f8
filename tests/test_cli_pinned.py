"""CLI output pinned byte for byte.

Each command below runs in-process through ``cli.main``; the sha256 of
its standard output and its exit code must equal the values recorded in
EXPECTED, which were produced by an earlier, independently tested version
of the package.  A change to the arithmetic that alters any printed
digit, sign, layout or verdict fails here.  To re-pin after an intended
output change, run this module as a script and paste what it prints.
"""
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rjpascal import cli

X_VALUES = ("1", "symbolic", "0", "-2", "3")


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for x in X_VALUES:
        for n in (1, 2, 4, 7, 10):
            for fmt in ("json", "pretty"):
                cmds.append(("verify", "--n", str(n), "--check", "all", "--x", x,
                             "--format", fmt))
    cmds.append(("verify", "--n", "6", "--check", "power", "--m", "40"))
    formats = ("pretty", "json", "csv")
    for n in range(1, 7):
        for m in range(-3, 7):
            cmds.append(("power", "--n", str(n), "--m", str(m),
                         "--format", formats[(n + m) % 3]))
    for cmd in ("show-u", "show-w", "eigen"):
        for n in (2, 5):
            for x in ("1", "symbolic", "-2"):
                for fmt in ("pretty", "json"):
                    cmds.append((cmd, "--n", str(n), "--x", x, "--format", fmt))
    for fmt in ("json", "pretty"):
        cmds.append(("identities", "--N", "0..6", "--J", "-3..5", "--K", "-3..5",
                     "--I", "-3..5", "--M", "-3..5", "--L", "0..5", "--format", fmt))
    # the benchmark's identities workload: the default boxes and two wide boxes
    cmds.append(("identities",))
    for ident, names in (("star", "NJK"), ("vandermonde", "MNL")):
        cmds.append(("identities", "--only", ident, *(f"--{name}=-12..24" for name in names)))
    return cmds


COMMANDS = _commands()


def run(argv) -> tuple[str, int]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


#: " ".join(argv) -> (sha256 of stdout, exit code)
EXPECTED: dict[str, tuple[str, int]] = {
    'verify --n 1 --check all --x 1 --format json': ('1586a0e15ba628bbe98181381f051a4551f329d2790a23a1e1f09b27b0cb53e3', 0),
    'verify --n 1 --check all --x 1 --format pretty': ('4262ad9747a0887ec659e04f746444acd95e2b09258f9970b57e554159cb335d', 0),
    'verify --n 2 --check all --x 1 --format json': ('9c5525bed77ab9d3ce16f659339b31b720a099b80288d79f03d89bc829c775c1', 0),
    'verify --n 2 --check all --x 1 --format pretty': ('a854ba4d791e946f2ebdae3fff975fb2f6619e2a6649f39c0d64db24dc3c62ab', 0),
    'verify --n 4 --check all --x 1 --format json': ('7f89623525837bdd283077bd3d4d6f5a9deba813a905622c71133dd8d4f831de', 0),
    'verify --n 4 --check all --x 1 --format pretty': ('03ca9ae828c4ce0432b16adc8259b663df96200705f5810379e5d9eabf30dfe1', 0),
    'verify --n 7 --check all --x 1 --format json': ('c55dc4c2d5eb1aa4e5ce8a00507dc1140baadc8ac854ee567b3b55738e8306c6', 0),
    'verify --n 7 --check all --x 1 --format pretty': ('3799b0f21f0f574bd4a676b2478ddfa814755127eaef7e4d1bfa54aee2a02a1c', 0),
    'verify --n 10 --check all --x 1 --format json': ('c8b28f6d11399e78054d288e11166eca8a11692fb584347b8f1a24610661bb99', 0),
    'verify --n 10 --check all --x 1 --format pretty': ('47759cbb63d477ca916174ddb7f0402e353a3bbca13d7836686d84225ea9105b', 0),
    'verify --n 1 --check all --x symbolic --format json': ('80c09e82e6bd818ccce425b55d5dc9fa6231a5bdc9297b948d801a5e7d687ced', 0),
    'verify --n 1 --check all --x symbolic --format pretty': ('dc5a85cec05cbb6c7a289a0a1fad89df822887810e3bed945483f7f306a69da8', 0),
    'verify --n 2 --check all --x symbolic --format json': ('b22534c4036fd1f5601445649a1014a1d0e596770cba0e96765488a67a3dfce9', 0),
    'verify --n 2 --check all --x symbolic --format pretty': ('7ad99798229cc34e81028bea3564f0cd3272ebc2a946e8fb2c8c5fb86aef9984', 0),
    'verify --n 4 --check all --x symbolic --format json': ('12698a261ef4692f72d660ef9734c6f44ccac288af0c92575a0085bdd7152c1d', 0),
    'verify --n 4 --check all --x symbolic --format pretty': ('d445ef2b82b32079eae4b253f0d7f772f5f1f7dc6b4c1c449a6495e95f830360', 0),
    'verify --n 7 --check all --x symbolic --format json': ('d411c67cd40cfeec7553115ef5ca3808a5a72df6168cceaece31950bfe77e002', 0),
    'verify --n 7 --check all --x symbolic --format pretty': ('461b62d6ab0d0d6c5952b6cab44a819c457ac9393de93bbea74b03c02a583668', 0),
    'verify --n 10 --check all --x symbolic --format json': ('65ccb22634f1c9f5367122c7f70f95a3c539113de27e90b97c0ef5a17c8c957b', 0),
    'verify --n 10 --check all --x symbolic --format pretty': ('ef51a31d89ca90e3fd652dc56c317098551ba7891dadaf668e920b59b90d1800', 0),
    'verify --n 1 --check all --x 0 --format json': ('7be019b220e2132934f69d1632e14d6fa4a31791f0ca599b9b2a9f4ff80610e2', 0),
    'verify --n 1 --check all --x 0 --format pretty': ('6fd4cb8d5f72d7f3073068bf0764c2559fe9b02f228bb5a3a742a0f45ddcc437', 0),
    'verify --n 2 --check all --x 0 --format json': ('864a9eaba49912047565197ea1a026cc55082d33fbabd94b96c6d30be3fb2f7c', 0),
    'verify --n 2 --check all --x 0 --format pretty': ('a29eb6f5323e9741faead4408ebb1cdd7fc805f49aa7ca7da982685792abf897', 0),
    'verify --n 4 --check all --x 0 --format json': ('0c724c34d99f58c806f3b673cf848a2af82eae4c4e7aaea259721cf04d210418', 0),
    'verify --n 4 --check all --x 0 --format pretty': ('528b407107dff8bd43eb7ce1f61dec7dd82108ee618c7939b72fab37a5bb77ba', 0),
    'verify --n 7 --check all --x 0 --format json': ('c4e231bf31c75dc73633ef10f14013d047a127c2e6a682acc419e063d973d114', 0),
    'verify --n 7 --check all --x 0 --format pretty': ('8f9eb5917680ab1c8668cbf3b1f5c8b98fa3b4e8afc2bf3febc8d630ce262160', 0),
    'verify --n 10 --check all --x 0 --format json': ('fc4d42655a999a5c1e0e0a97e7958182767c4526d09865caf1fc3e7e781eb5da', 0),
    'verify --n 10 --check all --x 0 --format pretty': ('f052ba7c2b1aafea2cbbc24f50ea3166421ab003b9ec398bf49a39e7db692c34', 0),
    'verify --n 1 --check all --x -2 --format json': ('3ddd049dede98244204ab94d8d7fa3b1def8d0957fa4ab7615c34e2eb4d6a947', 0),
    'verify --n 1 --check all --x -2 --format pretty': ('61184422d4b3697ccde90fd9f6b25f1a0a166627882fb33a6430a6baa5328620', 0),
    'verify --n 2 --check all --x -2 --format json': ('640000d1c928f3a6ae1043bf2db0838000185e611d60ecb01e9e1c10ee19b215', 0),
    'verify --n 2 --check all --x -2 --format pretty': ('94e018cbbe90669ba155256d1dc72fa0af5c385a66b42b9d31cbe986ba2ffe47', 0),
    'verify --n 4 --check all --x -2 --format json': ('021fdc26678488196353b8919403cde5956085c1bcd955b04c00f96b3e469c91', 0),
    'verify --n 4 --check all --x -2 --format pretty': ('bc9bdb26c9c4f62ae8d110cc0488996a7700ad90b2080eb4aeaae7c4eda97898', 0),
    'verify --n 7 --check all --x -2 --format json': ('e068b84836d2b65a3dd47445d0abfe2a03fccafaaf18d9ff503d16d91cc6d38b', 0),
    'verify --n 7 --check all --x -2 --format pretty': ('252a0fb3c7d9fd14dc705947575812ac806fc338b2d92d97271a57d2086310f5', 0),
    'verify --n 10 --check all --x -2 --format json': ('2a4ce7b7d1c053af9bc4b19ff5a0ce28493e0cc708a02f22222613339da7c306', 0),
    'verify --n 10 --check all --x -2 --format pretty': ('c3bb916d5b661696c28cec818ef6b2c9fac5bc434bfffe1cfe61b7979722f8cb', 0),
    'verify --n 1 --check all --x 3 --format json': ('f99e4a8cf6b5061ccc0eecdad4f95f70632bfcce0f6429483b3a40c12af900d1', 0),
    'verify --n 1 --check all --x 3 --format pretty': ('87a9fbf1091b90e9e809bba2472ef12b94a558ac4ffc46745c50e8a815baeded', 0),
    'verify --n 2 --check all --x 3 --format json': ('06f1ed5fc040ab66d297b4bf61a968a392c34fa30a42c9e5ebb44f5c95934b00', 0),
    'verify --n 2 --check all --x 3 --format pretty': ('2090cf65fe11adf2a9b42cd07cf3d252af36d55211698d00562a2c32b488245d', 0),
    'verify --n 4 --check all --x 3 --format json': ('f885c8f7a059997bdfff53be3231eb4d8c2151fbad49b023d7d9e767e6b0025d', 0),
    'verify --n 4 --check all --x 3 --format pretty': ('99f5f865c946e1699132301afeb80bfc52f5d9801f61ac5d30dff72cebeabd8c', 0),
    'verify --n 7 --check all --x 3 --format json': ('019ab4e1b62cf9191fc88f13befc03b475bd59671a94dd7f0b83253bffe096cb', 0),
    'verify --n 7 --check all --x 3 --format pretty': ('2226f7553a3caa064d5a309f81ee044983eac740b782d1bdc94c566d68608060', 0),
    'verify --n 10 --check all --x 3 --format json': ('cbed9f17e453f76c7fad1b94d0035a2b96b30cf8a7a82da77ad3036770454d41', 0),
    'verify --n 10 --check all --x 3 --format pretty': ('048b522eec9324c1f60047262e34092d542840fed5d46b7004c3d2d8e86b5049', 0),
    'verify --n 6 --check power --m 40': ('f104d6d0998398c07214da1a5968d6a251cad01798321d4a8bac8c2869585d03', 0),
    'power --n 1 --m -3 --format json': ('8e21167b9daf5a3fa7437991b3beea53b6ff5a1652b1393e92ddab0d3b90552b', 0),
    'power --n 1 --m -2 --format csv': ('4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 0),
    'power --n 1 --m -1 --format pretty': ('733d9cb1f42f0dfa5db0eb97d8abcb1e64831ec80167e2206ea06bb386267a98', 0),
    'power --n 1 --m 0 --format json': ('5232c39487d2f8d5a2a9f16286debb849345818a40b779eefc5fbe9820f61642', 0),
    'power --n 1 --m 1 --format csv': ('4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 0),
    'power --n 1 --m 2 --format pretty': ('733d9cb1f42f0dfa5db0eb97d8abcb1e64831ec80167e2206ea06bb386267a98', 0),
    'power --n 1 --m 3 --format json': ('2d96a5de0a321c189bd865449d7a535d738f2aaf4fd06bdafdac03b525d1df57', 0),
    'power --n 1 --m 4 --format csv': ('4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 0),
    'power --n 1 --m 5 --format pretty': ('733d9cb1f42f0dfa5db0eb97d8abcb1e64831ec80167e2206ea06bb386267a98', 0),
    'power --n 1 --m 6 --format json': ('8864f442c3902c7834c2ce8cd4189fb8bbe131beaa4144b5229a2a52d222d169', 0),
    'power --n 2 --m -3 --format csv': ('109e730c5fd3fa528215db1109e09e3113dbfb0f8a4f5312f2f48c546772ca14', 0),
    'power --n 2 --m -2 --format pretty': ('7332b098965ef5bcc1ec257b63d1fd2cedca04190ab25c93234e54d86369be67', 0),
    'power --n 2 --m -1 --format json': ('95e7f128204e2f145c65401aedce0ec6a8f8971f30c9965675e9e141e65c3028', 0),
    'power --n 2 --m 0 --format csv': ('28d9679320141cb843249a311e9cbd982b4155c8d857a7c1a1d9a40d9c21531f', 0),
    'power --n 2 --m 1 --format pretty': ('f3b056b65689b9d453c12afc35d6e2ff3b3d38b6598edc2ee43fee038a5723ad', 0),
    'power --n 2 --m 2 --format json': ('6ac6353e3e26bdf735578885beb654bdbcc7416136160b7b4b1c2c57a2b7f96b', 0),
    'power --n 2 --m 3 --format csv': ('19d475324d3123ef409eb6753fd3786813e6aea68f92ea047d39dee29765e47a', 0),
    'power --n 2 --m 4 --format pretty': ('b230ea0066baf9fb8951c593a794415447dab38be2b873948d8bcfd9ec9bbc27', 0),
    'power --n 2 --m 5 --format json': ('d3223478d6ab53b2a0fefb6847a39d8c8cec2b7f7f529ae39fcf130cc5c3e99c', 0),
    'power --n 2 --m 6 --format csv': ('0273114311b65c2eb720e33b2e864ab0e2782d7c3c651d705a2c4bd2b21a3a5e', 0),
    'power --n 3 --m -3 --format pretty': ('aec804d29b038d2b9bf00c0019c61e949f7ccc158ecdd3c2df4e34fe44fc884f', 0),
    'power --n 3 --m -2 --format json': ('81840b0a91262baf55b0a4aa1c7f904bad9bad8ae53057fd5dcaa901c4051c8e', 0),
    'power --n 3 --m -1 --format csv': ('9e7c75bd986c245de53aeb047ce1dd89aef5f2fc760a9e2689be9197a556d8c7', 0),
    'power --n 3 --m 0 --format pretty': ('c10c13971010c51fcb03a1bfcc325f5b0d1226656b0d0150f20ad1ef430d734b', 0),
    'power --n 3 --m 1 --format json': ('b1b8dc01d85cfa289e9e01d98fc0ae7dda55a58c35d4c6e7cf879380f97fe522', 0),
    'power --n 3 --m 2 --format csv': ('85f9e5cf326c099a34c0b6e4c4c6975e87c6a13bfa0179a83754063f8b8860d7', 0),
    'power --n 3 --m 3 --format pretty': ('0772b0aded1aa7943cff274518741c59320fe1ebb5fd1121e3752be8b2c05f10', 0),
    'power --n 3 --m 4 --format json': ('6a97ef4cc53de1d0364c57188b6c3897086cf1c0e01f23f2b3eda2f1136f32d0', 0),
    'power --n 3 --m 5 --format csv': ('63bb209f66adc824b22bfc011a2fda3c90e84aa7c1bdca50764ae07986e9fa35', 0),
    'power --n 3 --m 6 --format pretty': ('bee064a674569d342d1281ab98258c98602710f8b763eec8a8fda6490f9f1bf7', 0),
    'power --n 4 --m -3 --format json': ('fc01d227701fb25333eea710a13c23924963c959b61fd87ef0e02da117b4562b', 0),
    'power --n 4 --m -2 --format csv': ('0e9cc05ac38be666a4d3bf590afb551c70908838920f6ee5c5075d45f280cd22', 0),
    'power --n 4 --m -1 --format pretty': ('6d8705782595918a084e7ad965a87e2b9ea507f680030aa3fa849f75bf436b17', 0),
    'power --n 4 --m 0 --format json': ('50c20e52e5657fe9750a4f44ad4bb039123b645b99dec2cfbe413d281c6da7f0', 0),
    'power --n 4 --m 1 --format csv': ('bf4ae103a2218974b3a3c26196b7c943128543f8512b941becbd3eefd82d8c0f', 0),
    'power --n 4 --m 2 --format pretty': ('f60f7f3147a5c527e09dd02012c730ae1ce150db58e8c0985264a772921d1e87', 0),
    'power --n 4 --m 3 --format json': ('7c8d5fc8e561d0840bdeb5bea8a1ac7049244248f2e99a884275b08c4310b1e4', 0),
    'power --n 4 --m 4 --format csv': ('75d87f614dd893900ee4cf027b5b9443990725602fc5c30c850a8159f43414e5', 0),
    'power --n 4 --m 5 --format pretty': ('1c3d1c8b3085789d2807e4cef74ac3963321f8a6d4504c9b56c5af36aa72c665', 0),
    'power --n 4 --m 6 --format json': ('b8fb74762667da21d742614c7e8afcd9e939aed1bb9c45689bc55283560c274f', 0),
    'power --n 5 --m -3 --format csv': ('2b5626acf60fc6cfe3516f69c31a333f7fd1979eb33f43009aa4f0d4acf6e941', 0),
    'power --n 5 --m -2 --format pretty': ('bfd48634df16fe8a59270ffd967139306197b86e098ee1995e1fd7f54a939c83', 0),
    'power --n 5 --m -1 --format json': ('a7d5506c366efe079e4cebd589595ad6c14a35e73bf411a7948ef0b228e2da57', 0),
    'power --n 5 --m 0 --format csv': ('eee4ac322d5a3aa058a8d3c32d36986419016597ff9ce94bb66f9712f5413109', 0),
    'power --n 5 --m 1 --format pretty': ('9cd4fc9850936c5515a14db6f190529c405d7061888bb97fb10fb417d60d78dc', 0),
    'power --n 5 --m 2 --format json': ('2efc09b4df60e926767d267fc6af202159ddfcd14533c91c23e5dadcd810e180', 0),
    'power --n 5 --m 3 --format csv': ('f7f4c0a48d66ee0545854dd2d752e459530dac5da0811867cc7e29bdb0dd8c6c', 0),
    'power --n 5 --m 4 --format pretty': ('83a2fb52ce08fe25cde78b06182c1773506bdb0a73766d68d04bcda72b628891', 0),
    'power --n 5 --m 5 --format json': ('129e7d9a3ebdb95f47795ba5d0f7023d40850f3857d72b94f6c21a7910cbdc82', 0),
    'power --n 5 --m 6 --format csv': ('c0fd98e5338430bfc14b8413c4adb711d51d50965ebd3fe1c6dcdc3a7a67b89c', 0),
    'power --n 6 --m -3 --format pretty': ('3cec443bedfda63f5bb40a34b9c03ed321e121ce33f887230ad93238b22d3090', 0),
    'power --n 6 --m -2 --format json': ('722dddfde347663aea3361861056e8402408e1ab897e0893adf0933ca51f7793', 0),
    'power --n 6 --m -1 --format csv': ('2bd18d426b302f44c6d84eedc0040bbde05929625e81b8f8bb20fe06532d1740', 0),
    'power --n 6 --m 0 --format pretty': ('d0c77d32388eb59f0996b2b00564013e10fdcb8af9b2c63671fec14b81499b65', 0),
    'power --n 6 --m 1 --format json': ('4f62ff1036d5a9c4bb284779f44a357e1211f18bb9e96c5396d9389c55e3d5fd', 0),
    'power --n 6 --m 2 --format csv': ('85aece5253563c68073ae5df4e860d958d6c4e01e753dce3c8daa9d796eff36f', 0),
    'power --n 6 --m 3 --format pretty': ('b63e8f51d04bcba9f649d33c863bf06f315e8c3f8240af181ef5dc61c2a2b366', 0),
    'power --n 6 --m 4 --format json': ('143d669a83d3620a2af40680da5e44ed691068f2ff8ad68c8aca69834384c006', 0),
    'power --n 6 --m 5 --format csv': ('039db97e6d56faf2f66024a6304a1dd7c3d4a2573bb65d6a8ceec917c3a4b281', 0),
    'power --n 6 --m 6 --format pretty': ('b87535478166643590166d058f3ee83264587a966e96e38de422e5def2a1b458', 0),
    'show-u --n 2 --x 1 --format pretty': ('daa34962b8389a63e63a3a7b12447e8893c0a4f6f8f512d3df1264853f4328cc', 0),
    'show-u --n 2 --x 1 --format json': ('2681172e70161689ac4b4b7ca90da54d8da805cf9a5dad5621f04d0f4940b27a', 0),
    'show-u --n 2 --x symbolic --format pretty': ('98df779934171a65bf6bbb560886f34b5cab8f032558deed1a31c7011fa01711', 0),
    'show-u --n 2 --x symbolic --format json': ('5f8861e29c0d19345c6dac53a8cbbf8b6aec8eaf367075157ce5cffbd096a799', 0),
    'show-u --n 2 --x -2 --format pretty': ('ea0724423a926913dcd236a069a89b3046bf8d8e0cec5e4b65f37e6e0b56595d', 0),
    'show-u --n 2 --x -2 --format json': ('ad6a935aa567458830a5bbd0df8f3901b846ea81023298202bfafa35b698174a', 0),
    'show-u --n 5 --x 1 --format pretty': ('9b19843ba087d1b856b6e8f1c061925a0b5652ee099e61f5ebc9c0d6bc0f9dbd', 0),
    'show-u --n 5 --x 1 --format json': ('9252b9435dd9843ed239a31fc0ae02b1f55f3d3b33e723ebda68ac8183f13af7', 0),
    'show-u --n 5 --x symbolic --format pretty': ('73fbe6784a6399c4a769f91e4565a851300b23c11e35d98f9dfd6054e5aeb5ef', 0),
    'show-u --n 5 --x symbolic --format json': ('dd60da7316fbda08ba6283abaff04c09bf86f7acf019660bd264c127812689d6', 0),
    'show-u --n 5 --x -2 --format pretty': ('a063601b9afd3cabdfea6c364d514698c9714ba5bbb847b7870b61e74c6e933e', 0),
    'show-u --n 5 --x -2 --format json': ('a34bb29a683b95eeaebf2e2cb48d38bfadbc1eb8211aee031d92c203f9f6599a', 0),
    'show-w --n 2 --x 1 --format pretty': ('c0cc0d2785d46fed84e8d489c2517e9cc001478c75470e2608f07107c1368a74', 0),
    'show-w --n 2 --x 1 --format json': ('14fac8b72574892b07118195ee496462199b46429dd53d32715ce92fc4b3d674', 0),
    'show-w --n 2 --x symbolic --format pretty': ('c0cc0d2785d46fed84e8d489c2517e9cc001478c75470e2608f07107c1368a74', 0),
    'show-w --n 2 --x symbolic --format json': ('14fac8b72574892b07118195ee496462199b46429dd53d32715ce92fc4b3d674', 0),
    'show-w --n 2 --x -2 --format pretty': ('c0cc0d2785d46fed84e8d489c2517e9cc001478c75470e2608f07107c1368a74', 0),
    'show-w --n 2 --x -2 --format json': ('14fac8b72574892b07118195ee496462199b46429dd53d32715ce92fc4b3d674', 0),
    'show-w --n 5 --x 1 --format pretty': ('656ad2e35dcb14051df9ab323dde8fefa27b5eed7132ec3c3e923041f961af75', 0),
    'show-w --n 5 --x 1 --format json': ('dfa0e6022a3efeb9a3365923a6a3e0188ecf3afda29805b0d0eaaea498eee433', 0),
    'show-w --n 5 --x symbolic --format pretty': ('e36183553d82053da35c7adf12357f589fb38708f31f10386e33fa69f386e858', 0),
    'show-w --n 5 --x symbolic --format json': ('aa10aace0300d3036615928786236e7d41d9e5445bb2b34df85d6e43e69be915', 0),
    'show-w --n 5 --x -2 --format pretty': ('3a8895628f52c2aad4401070c983d8c7259e182d81ec6c4a496314a8f99f0e1f', 0),
    'show-w --n 5 --x -2 --format json': ('96a6700828a16ea8935b442299fbd2b6d9aaa00343649546e40660543a996979', 0),
    'eigen --n 2 --x 1 --format pretty': ('39cfb3525542d1dbfcdc2c6a529283c811d0811e2e8e1e94bb1c017448509c11', 0),
    'eigen --n 2 --x 1 --format json': ('074996398e395cc17eb1fb8ac4c436f6e2d948a7425592a02629a2000b88113b', 0),
    'eigen --n 2 --x symbolic --format pretty': ('1f5747b148fc9e14ed35d652568d42078324467abfc8bd93d52c008fa02120af', 0),
    'eigen --n 2 --x symbolic --format json': ('b4ac354598518bc307ac119a32c3b0b4afc44b84efe8e039c7812968951ea13a', 0),
    'eigen --n 2 --x -2 --format pretty': ('1585a9f32f8f12d47ccf36b6a97a5a875a09e2fda48d29f61174737e60155b99', 0),
    'eigen --n 2 --x -2 --format json': ('1b2f67fa2bc494dbefaf45505a9548d91502d3eeebfb23b8341575a1e94dc920', 0),
    'eigen --n 5 --x 1 --format pretty': ('03e27931fd773cc89a43d190e73a3b0b06a3168fcf1cbf1eae3fced0296c197f', 0),
    'eigen --n 5 --x 1 --format json': ('ed3bf5319afd47b036ba4b5740e6a2430f82a230b5ea583d3d0858929f00f2fd', 0),
    'eigen --n 5 --x symbolic --format pretty': ('81cb357811e24c9a02e938a334d4189f48f25065cf62ce87a9a13ccbe6dd859b', 0),
    'eigen --n 5 --x symbolic --format json': ('6ba03261e06bd3c4822db65218207b1dfd513bbfd94240e7a7431b5f9969e5ee', 0),
    'eigen --n 5 --x -2 --format pretty': ('ada6c66574626982f3ee30994bfd4d274f03292cda28cf092669dcd3d7f83acc', 0),
    'eigen --n 5 --x -2 --format json': ('cca1db0f849e06b093f756d7bcde8874d63321169b879893db33c8d7acd97ea6', 0),
    'identities --N 0..6 --J -3..5 --K -3..5 --I -3..5 --M -3..5 --L 0..5 --format json': ('de35efd3ae1f7b18db3bfb27f011bf48925ad91610c98b50a13b3e858f61509f', 0),
    'identities --N 0..6 --J -3..5 --K -3..5 --I -3..5 --M -3..5 --L 0..5 --format pretty': ('bead2c736a3113e168826e5fa0d6d4809db38700a2cb6430f6dac109273358e5', 0),
    'identities': ('c6efe15d5f1acc054f75e56dc51da9dd15ed368dce205afcec74881da242632b', 0),
    'identities --only star --N=-12..24 --J=-12..24 --K=-12..24': ('af151a978573d2cd25911e498af685adf75607f0ae2ca53e43d9a4bf0a17c9c3', 0),
    'identities --only vandermonde --M=-12..24 --N=-12..24 --L=-12..24': ('46fb3a3b1e51d20f93ff77279ca9044b904f9ab30b962a396b4a7128c8704560', 0),
}


def test_every_command_is_pinned():
    assert sorted(EXPECTED) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_pinned_hash(argv):
    assert run(argv) == EXPECTED[" ".join(argv)]


if __name__ == "__main__":
    for argv in COMMANDS:
        print(f"    {' '.join(argv)!r}: {run(argv)!r},")
