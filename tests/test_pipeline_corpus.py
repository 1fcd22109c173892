"""The whole pipeline on the maps a user would try next, under a time bound.

run_analysis runs at the default config on the first 40 maps of the
acceptance stream (seed 20240811), on the first 20 maps of the sparse
stream (seed 7) and on named maps, each also as its decimal twin; corpus
maps 10-22 and 24-39 and the worked maps also run at max_period 2.  Each
map must give a schema-valid report within 4 s, and only a coded
RatmapError may escape.  The sha256 digests of each report's
to_json_bytes() and to_text() are pinned, so a change of any of these
report bytes fails here.
"""

from __future__ import annotations

import hashlib
import random
import signal

import pytest

from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, parse_map, run_analysis
from ratmap.restricted import PREIMAGE_DEPTH_DEFAULT, _verify_critical_invariance
from ratmap.sphere import INFINITY

from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map, _decimal_twin, _floating_twin

CORPUS_SIZE = 40
SPARSE_SIZE = 20
SPARSE_SEED = 7
BOUND_S = 4.0
# (z^5 - 2z^2 + 1)/(-3z^3): the backward tree that verifies {inf} holds 3125
# distinct points at depth 6, so a frontier dedup quadratic in the level size
# takes about a minute
SPARSE_QUINTIC = {"numerator": ["1", "0", "0", "-2", "0", "1"],
                  "denominator": ["-3", "0", "0", "0"]}
# maps with a parabolic fixed point: z^3 + z and z - z^3 at 0, (z^2 + 1)/z at infinity
PARABOLIC_MAPS = [{"numerator": ["1", "0", "1", "0"], "denominator": ["1"]},
                  {"numerator": ["-1", "0", "1", "0"], "denominator": ["1"]},
                  {"numerator": ["1", "0", "1"], "denominator": ["1", "0"]}]
# (z + 1)/(z^2 + 2z) maps the pole 0 to infinity and infinity back to 0
POLE_CYCLE_MAP = {"numerator": ["1", "1"], "denominator": ["1", "2", "0"]}
NAMED_MAPS = PARABOLIC_MAPS + [POLE_CYCLE_MAP]
MP2 = AnalysisConfig(max_period=2)
# the corpus maps pinned here at max_period 2 too; test_report.py pins maps
# 0-9 and 23 there
MP2_CORPUS = [index for index in range(10, CORPUS_SIZE) if index != 23]


# (source, index, twin) -> sha256 of to_json_bytes() and of to_text()
REPORT_DIGESTS = {
    ("corpus", 0, False): (
        "377f89004ab130d97c3153f287c394f67abbf0436c35f039abc343977d84df78",
        "211291fceef2574189a82274ba564bdf25c4f8efcf581628ed92fdf2fdcb5a74"),
    ("corpus", 1, False): (
        "c1deee6bb73a832c2dc7508482029990461f73e2338f77d424b10c55466a5244",
        "2d2c230140b4aa73333894160dcb1e2d539c3f649111556d55faef6332511b11"),
    ("corpus", 2, False): (
        "e4e448c805ac69f4cf8e37395841203831da1d65b28462c05d1a8f508598df6b",
        "f166798d5876f5ea2edeb2703e8f94a3c1ef08ea58653516a174c1279f8c1c40"),
    ("corpus", 3, False): (
        "6bb11bc51060b269accb4cac63f8c390e9bfecbf5e0d449f116be66cd3f83a15",
        "722bc982379991f120bbdcefbbb6c8f67bc6a4554221d5f76ecf4509bec63169"),
    ("corpus", 4, False): (
        "a060b253f6cf7b6216092889561d14c40cf64a7c4d8857136f1d1fb29a3cfa72",
        "b7265ee97f8d13b475046b5642014017dd1be97d1cdfef2125af07f8706618ba"),
    ("corpus", 5, False): (
        "e9f040b4c7d4c829940c9e76885b5f6c6239cf7dc678e341606e025a3c3becda",
        "c52babc326fabfd9a78a2fd18f99a6b5297d7de62a5d724f994d41892d6d37bb"),
    ("corpus", 6, False): (
        "42d7b186bbd8106ef3205b0f9fee8dda186a7cc81597c11ea049b39c71db094a",
        "b37a74e0245a671c554d7d0170e7c0a918fce4d0340c8423e400b5229bdf72f7"),
    ("corpus", 7, False): (
        "67e778b1115d523476124200012da891647d6a5d319b8b393c860f90f56ed3ad",
        "9b468203920f2811431831ba3eba5e425516679d40576c8561e06aa277dfa421"),
    ("corpus", 8, False): (
        "98b1b362a73b3b256573b63ace38320ec018a3ae40a721fcecb750cbcb0889fe",
        "3550edc29fdfcc01bc55d2a9869d1895cb827a7b1824e660011cefe53fc19c1a"),
    ("corpus", 9, False): (
        "e6aea953f9f066db8c694b4384f9274acbf7ef6c8081018c7220af7eec568e54",
        "d5491713e2a560704ebde08e54a408181777628f178e44a71375f1d83ee1f0f9"),
    ("corpus", 10, False): (
        "20f949d6e1f0a9c2322dce4de9d7cc15bc0270e247787ed10a00ea4ce1ebcd84",
        "c15000df9a5a73fe516a72bfc7942a39f5b8616d596f494ab35c5cd22361c185"),
    ("corpus", 11, False): (
        "31adbf1fc65653e2bd1614e76f74d017016b4a6166c55892373570c553d1ea9f",
        "78e82a15e2133a580eaa9ce81ac34f9604c9fc43f1149dc36f1e672a2339a361"),
    ("corpus", 12, False): (
        "ace36800286c60688aa6400fc83a991220db778c304d91051f223bfb7e0876f9",
        "64e6aae94d04946df9a34063ee41d335724dc6f946c7095684005cafeef000ce"),
    ("corpus", 13, False): (
        "f108f725d808ffa4ba77f1cdbd0056167b3337f74ed00ba8c6fd99ae74a864cc",
        "c544291913d86664f9fe414dec09fc136b5b03e6d67017895523665d0c1c6adc"),
    ("corpus", 14, False): (
        "08399d824eb32b7f1c1bc729952b6a332de5cc14eba7b16a1eb6527a4541e0a1",
        "5225b24274883ed572b68b5c97fb742287bf3459aacb797ed3fb7dcdebdc27ea"),
    ("corpus", 15, False): (
        "e46d55d511d521be4f2392e05c1af8cc7daee7244807bbfd1b075587d3cf092f",
        "f026bc77f0998a304a6ad575bbdd70a56f981756cee937c1c42bdfd99a3c30f5"),
    ("corpus", 16, False): (
        "4d89d49835b5b61d9349387df6c37169bc6dd6edd6915caa3e6e6999a5f3b687",
        "bae67b43c574ed8dfde1f536113a922f9cb3c492aec8492e4a4774e1533993d3"),
    ("corpus", 17, False): (
        "15621507dc4c208117ceca908fccfe72fb48a1223280d800f2e260fcdc542c00",
        "d7faa7a590a9661b21646bc21cbf275b5128888590ccbb672f49a4698491f465"),
    ("corpus", 18, False): (
        "3c06c02aa02dc1acd82010cb8c1c99a4845c0c365ea12f0c004f2a9509b625aa",
        "57023381438328cb7f1a017ec66d401098c13362a93ce55b20608e7e18901ff7"),
    ("corpus", 19, False): (
        "861c04337087acb92c7f81602f6e6dddf156852a2f3b9e801f2ffbf13d07f4a9",
        "72801cc79b3780fff31f2d891d0fcb5d783e5a33cf84af14d17fb9095c058219"),
    ("corpus", 20, False): (
        "8772a040720c77e5cf3f63b35ccb3b556557620168c9d089cb1dd596a69f49c6",
        "4fb9704434b1105c1f8df1a4ba7abb75001c85fb8dcc24456d0fc31b7dcb0d6f"),
    ("corpus", 21, False): (
        "5994f269d71ba68a2df9ae61c98f9746fb2a211508160006bc56430e2281e840",
        "ad1374e298a69368e8796f007b4857c9122edbd1a8714b75280d47974ae02695"),
    ("corpus", 22, False): (
        "672c3c0f5ca5061e845909598e367ac7e11b4febf745e34bf245674cc70077ff",
        "5237091987bf5a4dd2be09d70870296189d61c5f7a3677e89579468dd847f829"),
    ("corpus", 23, False): (
        "f348f0179a8d02d0d924e4a89a536bd64bb22077056017d3bd034c557e96a499",
        "06b9c53f6d2136dbfa09c241e5e7162dfa6137ac726619b2c211902e9d0624c4"),
    ("corpus", 24, False): (
        "d78966040bc47b1ec4adb4635bd9f3e705a598a6890d34c46465fcc93b375bba",
        "986387576e0690c143b3a1020847c5825c759d90b863258dddafd980ffb74846"),
    ("corpus", 25, False): (
        "07774afd2d69e24697910899499e7239f0ea259d260dcc7cbf097d28f81d8889",
        "ef64d23a16789f42c145fce0dd4c16c28ced015bb736dd5ee715e64b168e3baa"),
    ("corpus", 26, False): (
        "078380cbfb554f8d97b455c9476dd8a9778bc43730945e7548686c3d3480a11a",
        "ca1a657f97bc0f4bbde2f475cc747603097e8e052f4fa2a8424cf1834e0b66b1"),
    ("corpus", 27, False): (
        "93a9d353587eed656d4b843fd7c1008d4df21434960d2e41bb772d2384a5dae1",
        "bb9a82d47f24862ec55b328ee3730c60bc8b6239dbe323510c01748d937ba9d1"),
    ("corpus", 28, False): (
        "0572fc092bdcbe2848b111b00d81cdabb7ce231dedd197ab126e277fa2553830",
        "ebacb14870d4ea7df27ce00fc0b9d4930b97a3d24149e6a3dc796acdf92801ea"),
    ("corpus", 29, False): (
        "a2b4958feed080e520e3718bc11ee37d15763319e470e9a63596e671e8185fb1",
        "76dc7fe35f372ffdf61eed812bf0fe74d598dda320796a4967e3822c81cb0ab9"),
    ("corpus", 30, False): (
        "3b289350a4cc3886d8e69ebf4bd254642750800547da81b7a2f498e41363c48b",
        "16ad3e0737758345b899c4f0d6216e8e3a1189423fe140642800b37993317898"),
    ("corpus", 31, False): (
        "d6ed54884fa090cde9a86cb8474c8a687fbd93bd2d09d2b1d65685c6453a63f1",
        "b866fd9da653253147afb5d94a67c4ffd5be9d25fc6d66348ef38cea6e5bcaa0"),
    ("corpus", 32, False): (
        "377e6b2bead9f7fb8588dd2e963bfdd83b8a53a5a7c7b73b5aa91a38253ac951",
        "241116cee7aa90cacb422c0026ff3126cbed0b54fe22e46a573cc6a24c12b526"),
    ("corpus", 33, False): (
        "3430d1024014952540cefe8c6ec798f3fd04bde8161564d1fe205cfbd246a9d9",
        "80f373c36b3c406cb5449421232260669b8724dc592b65d3a951d3bb53548a0a"),
    ("corpus", 34, False): (
        "b475c00d70f1b244e2da9ea55d67d59cfe083a896298f067fb03674a86acafb2",
        "31eea4558164186e2c3d906af2ff2168da140312282a8600c8e8c4e8114f1e31"),
    ("corpus", 35, False): (
        "2781033d2e71e54e991f672527f010a1768368dbc0f07a5a8123a4e311298b62",
        "4b48dedb560e8156ef760bd8b9ad144d767d864e5d4acebfc7ab387eff19d110"),
    ("corpus", 36, False): (
        "129afce53ad26fcd48fce5c9dcb9af6e7a8c31127f0b18c14dcaae0a4e40d0d1",
        "e731cc18ca4ecc22833952e21d4e21eed1646d11e5584eb71e041e50dd562cf2"),
    ("corpus", 37, False): (
        "34939c0044f5fd523da09ce501c18f2f1b7a828a890429f5a7637df9c4d64fe8",
        "5351b146a1a8dbe9c783838881190ec3460aab7c592fc68d5e4d97e693b24e98"),
    ("corpus", 38, False): (
        "2a5c7308c2eb6fb6f275976db2d4f4fc33879a6ec1b69e7c0f513294cb0307c2",
        "d7b5fdf1027059f8b08523081e81a0a20ed703edbb04bcefab521512a4b29c17"),
    ("corpus", 39, False): (
        "dfebfa6ced696c1d4217f8edde0888a071eecb26f223eed704c7c053f4e04d6b",
        "1e2e2ece9a0733fa763ebfc9f59bb7eece3ab1766c22253477e2f37a758dd40e"),
    ("corpus", 0, True): (
        "adbdd7db5b07adf708d511c9acaa66754b090643fecc488e230c36eb0ad65126",
        "5c9aa2d7421b0bb7cf341a9dfc2259461c4f13542c4ca567f6116a623b081b9d"),
    ("corpus", 1, True): (
        "ef9cd158676fb08bc8d15caa93aa9b1b00bb2b51d95d5902a028829d413444c6",
        "210df904fabf11e219e306a21b90ef4393252927b0ae59a14ead3648fbb48901"),
    ("corpus", 2, True): (
        "efaad1a25b42e7005be630f2b4ade556acf556f920f5baa705273fc8f07d31cf",
        "c6f05014020d45efd0b87ee91f8e2ca145b11da3744bfc27eb6f6800e395f74a"),
    ("corpus", 3, True): (
        "e80a21007ec74bbfc4bb2c2384aea692138c5ff3db444023a05d2c5283a54238",
        "731dd30716e292c32f66b76cb8487ccbc1e372300b0c73cf39aa88df45222fe1"),
    ("corpus", 4, True): (
        "0c25cd906d73df4a12b280ede2171f548e8d849fc3bb9053be02c6c61dcee61a",
        "d7d902c5442bf296135114dc9212b3cd64e9a3f298046da5d8bb28ed3a64f9db"),
    ("corpus", 5, True): (
        "4b43f509d39857052ff42166a4919bbad06eeadd645c8089e5873bdc654bd48d",
        "c70b2b508ca082691ff262765893ff646c55c51bfdff4eaf74033ab678074e78"),
    ("corpus", 6, True): (
        "cc52bb231c78920e13bb093b77649229889716f98afa81fb6e982681bc54f7b4",
        "52ea80bbd0514706fa65b5e85993bee758fefa82450b6420477a3ac5631bc340"),
    ("corpus", 7, True): (
        "02c6c38af983c78fcbf475b98aee0fc31b9d5c55c6e3a135d99a3b1c0fde04ff",
        "4cb1de0e942b27be56e91c042ecae83e4cb363d202e835795e32fcc86f7b0b76"),
    ("corpus", 8, True): (
        "c1789016de4056fbd2d8ab5d807cb14478410394a26c180b916aba1afc5bb80b",
        "c8e6ddf736f2b5a91a0d9d6528c2d01595c57dc99b9fe6bfe11b82e77b745c56"),
    ("corpus", 9, True): (
        "e862a3f7e03f34aa25ace16f98ba20cbcd0d6a83bda841199a69b984ab011962",
        "b51cd4be934e85d259205911bff831d345d513bfc1b53277c2c10d4280d01a35"),
    ("corpus", 10, True): (
        "9f4aecbbf9110645efb5b498f002a0bb992aa917c89d0a4a35605efb0f70ca86",
        "c6a35add176fd2504c61864a9c017993f97a6674c8f31f44a8db4204e06ed35a"),
    ("corpus", 11, True): (
        "106dbf400a6bc8dcca39c89387ced4cc3d2e61de6830228ff1a2c5f9fa8f90f8",
        "d93e3a5753142c132335d7bc05c807fbd349f0bbf58055b9e830b748b1c9091c"),
    ("corpus", 12, True): (
        "f06d1bd6c0b09146e2d5cf108e5806b1c71111973971b1d273b25ccb142b63ff",
        "3cbf378fae2721f7c4761eb4cee8ee1da9f740aa4b351f40f0dd4925fc375454"),
    ("corpus", 13, True): (
        "95b80d42aaceb2fa5b96d9ef4ddd9a6b5a443bcf90ff9b5a7f3536057caa1fda",
        "5603af6d20337cc97737c97fa6449efa85bc7a92a228920b0f50d2fc5a509760"),
    ("corpus", 14, True): (
        "bddb5939b8d547d0128edcbf0a9243227ed9164c3996b5433852e4a93ec5700e",
        "75f9760204864236cf373c48bdf0db00e46df488369e2ab6f513367321ff05ef"),
    ("corpus", 15, True): (
        "1b01bf071d3687ad5d5f29dc0a503390cff86114d8b8c7634f7835acfe919e87",
        "3206f1d85f5d27a2d6981789bde09cb04ff5955b890944fa548510c836aeb9aa"),
    ("corpus", 16, True): (
        "6bdd1f1b7dc2d102aea4b1e00cf559fb6d4a3ccab4dae08cd72f965cead70100",
        "63c4100c8afc6cefa582694f004985d865c4766b2ab2529c481fad05357e5bf3"),
    ("corpus", 17, True): (
        "34829e62e4ca74861b3bb4dd4fbea705f2218af7cced2ab5215519235cebd694",
        "809e733a8b5a32b8fd800551b797ebbb06a112088023a19d3a392c7441e33874"),
    ("corpus", 18, True): (
        "c2589171498a2d8a1644255d78f356b75d7fbb777f105d507924fc7c555fcaf8",
        "6e0f4f2723062b5d816922ad37943c13794fa43f724054a1d9f7cd9fe6bc6ca0"),
    ("corpus", 19, True): (
        "e0e15ca0edde2247fe2a8d6375534c61d87ef25dd5adab70bd024420d1c2af2c",
        "6b4230e24c7c94c352208761b4ad445fe52dbd3caaec7f131e229018ef930b62"),
    ("corpus", 20, True): (
        "12cb943d462a042d10b8723f823baa650b17dcd525b3539e7f93b1f11ac2aa0a",
        "04f4330ba32d7afef2dd3e3f98db3ca7e7a4e893e19d4da9caa2d31ff3e0eefb"),
    ("corpus", 21, True): (
        "933bd83166359b30616c09c8631f441c0efb7aa2a49f114fddb4b7ae73b071a6",
        "98802e6e90738c6a51ee15a11cc4bb1882cc3fe05024c97b370b3dd7c46de65d"),
    ("corpus", 22, True): (
        "0ab98746d92f980469d116dd6976f95fb30fd62f23a48128f3ab38ffc15ee28f",
        "704c82eb3e3eec9f3955b9fe05e2fc7c6f20ef3583aa2e9b0ceb550116f1bc00"),
    ("corpus", 23, True): (
        "d4b2e1c583c3465255e991aeef2f5cdcef586e076ee771504dd2b33e2e0342d3",
        "8de18e609551070d74c0070181876bb9497510bc4bbcbfa7dc2e2d3a75cd632c"),
    ("corpus", 24, True): (
        "52b40e5c72ee6f63ddd63737339c67ff8559944e2b7fe5fb7608d63a7982f50c",
        "ca8836333275d05b2daaf9cda2b00d01a5d5664150ea67f5415b6262d8bf4823"),
    ("corpus", 25, True): (
        "7d1a9fe2e2c8fd006bb659b4295773172527edc3873a6ed7b38107f01d6eee91",
        "e3d4a6ebb5441d6d9ef8d6e87bec5dfeda25c24ca89684a82211de5372936e86"),
    ("corpus", 26, True): (
        "e8dbfe1d25cc083a78baf0ea76190c3c8e80c26e1824932bf58e8288b36979ac",
        "48ea3e8d1561b6cf4fcefa7bdc450cecc15a878999dda20c63ac186be289e122"),
    ("corpus", 27, True): (
        "3d0bcdb46b6a16dc23a1baae096831b33c3c65939b4307be7f4b87e75c9c8044",
        "02d184799f861f1d3af5c66eb0d4bdb767d4694ec9cef6311c8fed751b7189fc"),
    ("corpus", 28, True): (
        "e0f7e9fda5cd836d8b7dc42a9874a32a34139402e768a6d7d9a847a56b5b2934",
        "0aece7bfe6649c92552237169ac686de31713598da74e4f8875b11013c112f3d"),
    ("corpus", 29, True): (
        "c4e390fb00d8a134c9e7cf28139ae5d1f8f913343f48ca327d3772086a28963d",
        "d53c407370724c08750b0483e7fc1a2fd11b94d9a32b20c3b9c6e6fa7d35215e"),
    ("corpus", 30, True): (
        "23214223463c9416259bf4c610d0164f4e0be080e5cf8523e3a53ee0235b66c4",
        "48620dd07b5e969b93f58bd3319ba5b70f9172d1c9a024e25dd060ed4639b1ed"),
    ("corpus", 31, True): (
        "9cb995094ceecce2318b28c9fad3cbc70325478daee944445624e943d8574235",
        "a671150cfca44e2619b793477f4f1091a0a2fbfa79bdd23c7e32d420cee4f21e"),
    ("corpus", 32, True): (
        "bd95fd1833bd8c9994fe1560662e0eef5e315fa1eb6e9c6f2593d2884fdcb1fb",
        "8ce30b28db110952ece822a4ef8c540af17c0a4e325ce939a74f0fedf404a52e"),
    ("corpus", 33, True): (
        "6a3d6ef742e7c87c335eab07240c159389878947de62a90be4c3bb77e9e8f5cc",
        "762689672933bb2e495e17dbf3096d554e9e9f755cc7080fcee1b30502a64ea4"),
    ("corpus", 34, True): (
        "1ecc20730631b6d303d329567b47938ba66e1dd6829058628ffa78b42f3b67cf",
        "cf03bc4fd4e8326deb2f925edce103d3e271048ba0018a2a1a04124264fc8c2f"),
    ("corpus", 35, True): (
        "93f80f1770a0fabe529230320205238afe5c75ea1d67797d48181bc5794ce04e",
        "a77fbb4c1ccda8b2f42eeb521eed5e53e80f5e88434e9d6ab68005e338761482"),
    ("corpus", 36, True): (
        "a127bb1ca39218985cd0cefe7b1596720f0588ea02cec4a67d649b230742c3dc",
        "51639b53303ce3ec7bc4fce337cf5aa5b25bd27910e2f147e9cbe2845bf43d15"),
    ("corpus", 37, True): (
        "b85250b65bff82b46b3f458ba881d8979c512bd9e8cd1962a5e8491ee04b8aef",
        "9ca2c81468e77e947ce5babeed336b20aa8a921238644e09dbbd0e330768bb19"),
    ("corpus", 38, True): (
        "34af0738ecc72c3fd0933dde678964b0c85b469eb991cdffb8476f4693a72c48",
        "20d1c19d63b9f8d36c5a2da9b4dbff271c85f7dd58b09cff4319fb740eeabac7"),
    ("corpus", 39, True): (
        "b1b8ce24bd9e0b1f17c32dadf5d8ebb2d8e00b60e9b65caeeaea9d28bc893f07",
        "a163d211e37385d7726702338fea72bee24acac8526da5c070f9a554749e8a3a"),
    ("sparse", 0, False): (
        "3dd48cfb8fb3940558fa151854d1f6ce2630e2d819a40dfb627174754992a9dc",
        "a6cc89b685acd5ce4939c18ae2a00bd13c72c5e36c2cfbcf4487038c1b4f4b4f"),
    ("sparse", 1, False): (
        "83e2057f02deb432cf2f3b47a1fcbc373d3b66f5c3609e278706094c45051895",
        "359ece755ba900806a772485c3a388000d4062faa44fd83ac9250a4a5fb1914f"),
    ("sparse", 2, False): (
        "49d1a89af2956a774732af601e8363ed64d8403a512080696c9d4b0ae87cc6b6",
        "1b2c37b5e641d43ceff25fb951e976962ce859fcb39129206dc465b90a869c98"),
    ("sparse", 3, False): (
        "20ae75cf928ffd576e3a6141666fb00b8384842f807a3aaa9ea685b9d3b0fff9",
        "be6be41838da82dbc11355933d1bee15938382798173df4436f3df142d2d8aea"),
    ("sparse", 4, False): (
        "43a18c1988b479bd83e978fbf808476fa05d78af56ec6a17a16717f6c9f02793",
        "be3b38ee211ceb53848fa91f2bac8c116c1b099fb049197377bbae6f0799e321"),
    ("sparse", 5, False): (
        "20b372f90695fe334d4368f3c5b60487647da74dc70aeac5bf82e851a8104cc6",
        "ac11e9757304657959c68d4980e53e93df9f374abf5c8c5e7ed2876ead766a9c"),
    ("sparse", 6, False): (
        "8aada8b193a48d5ff4de5bafe7a8867ec467dedf4c32246550b641e9fa95ac4e",
        "b2aa416e71d05ac1315c6d2bb10e064a14cab2dce2a9e24ab0b9a5f5ef358501"),
    ("sparse", 7, False): (
        "a61da872833b949b5716566bec227be92b5fa9f309b275914ed5048c406c00de",
        "eea73720993ea828206a05e0bc04ea0b5efecc242f27506b20b891211cc1fa17"),
    ("sparse", 8, False): (
        "1598945d87264bb9d82301d90bda41031b02710b0dcea7b1f939c15d0ae7d8dd",
        "8f697231dec4897816275aff9085aba195595cade81e82e24769a5a2ae9f330d"),
    ("sparse", 9, False): (
        "04c7ee3d5ea514d148f2c361cff07d120a6ae3a53b436bd6449fc785c58f7e4b",
        "252cc535f88a0afe670bf90cc77d14b405858fbe0f99d28842c523ced036801d"),
    ("sparse", 10, False): (
        "f304bc768b5ffe05c1c0ede15236053d38db76f58997502a1d02d2677ece6795",
        "41a588501891ac3d0dba12864a010852d1663a320a9c90f4187d6af71ec34b05"),
    ("sparse", 11, False): (
        "71690dd4b7ff9b696e3c73810e4ba02b022d559f051364da68eb0bd1dce4a1f8",
        "6ea755b2ecf9b101f9fdf9450d70a152cf8bff4052c7c77fa16bc0e0a5bd8ae4"),
    ("sparse", 12, False): (
        "41f0fff93e7faf0ed7c14a257d90c64cb8ce5b80e1ce7822a8ac450187e68d65",
        "27a1b6859393e3c556293cdeabc69486720888a8982205db7700e6c874f99680"),
    ("sparse", 13, False): (
        "eeae0aa201417457cbc90e1f0c79f375d525e1543d51759ba98254b63ae433ff",
        "331f159f406ec3203f4906f66c15897cc95b568b814bbb935562f56d72f7032b"),
    ("sparse", 14, False): (
        "8b73874f1d47c8ccce92e214c37abdcf6ef7dc7765b37f0d0a9e709e0ab0ea03",
        "65dc2d79e8707ef7ede6f1da0988e23cd94870b86c1c98c4b07858170e3d878f"),
    ("sparse", 15, False): (
        "587f0f63b7eefe2dd6030eb6b66daffeb8040274c1864d414874fb8be2e89ee8",
        "dc585be861572ecda96e9220526f9a5f661d5f1c192fd1e332190a9eb7604084"),
    ("sparse", 16, False): (
        "5bd9671b35d2f1a5d5dc4fb1814c7b8a45de065679dc099da9296134bf156884",
        "b36782ba385ec7b9d5aac329441b56795aef043386c166245a400620145df634"),
    ("sparse", 17, False): (
        "9a023f9ba03329c65ba95a45d5ba30b9bfd06f985c61e000c6562f6862cfd4bf",
        "b5750899f9cf2f2adcf87db469a7ecbba570d5cc96ad43394733d4a28d091c2c"),
    ("sparse", 18, False): (
        "b3ba85b58443267f74eef7e263eb52a78182a6c56cc79b14db1432ab39293ee6",
        "ebc749356748c74a85b77fdc1be72b2f745ab8ae5b518586e2aab0dca77dba79"),
    ("sparse", 19, False): (
        "c999e397663ce2b71f16e7bad19806fef936af05dda0c2b595521dd3947c01d2",
        "e44df10857448d4800117a719a78f5387560473c92fffa749c9bc8b53692321d"),
    ("sparse", 0, True): (
        "71c6a47425ca079babe270b6291d530b2456b6eb6ca797c99f936d4df4b7f690",
        "e2fe336f4963bf1fd140bbcb3010f7d038c291ecf842037f270863bcf753c458"),
    ("sparse", 1, True): (
        "39d124ef42df69ad671d008582d71e23e518adf244cce094849bca59d58449a7",
        "cb4eddf036785f23f01e5d8c000c28d4a8ab5c69abcbd51965a0c432671c3371"),
    ("sparse", 2, True): (
        "28bfb22677d9ab11d96e326c3a3391b5b1ae0937ffb6bb822e42b15442457eac",
        "2d8e69febfca5c03fe7720a7a0be606c029b682f36b134455f0a815463d9eccf"),
    ("sparse", 3, True): (
        "e549c5f114fee07ad3738a4397a094d3cf30892e02647bb97f028c987be197b2",
        "7cfd0e163511855d98ec241a6d1ae344306c23af1e9642141391679f0e179dc9"),
    ("sparse", 4, True): (
        "599734759e7dbabc9c3925688709e04bbaecd1129d929de30edb5204242f1fea",
        "15858b16b3cf717c3d6e08cd1cfe2a3238e8348033b3ba48938e99d2979710d8"),
    ("sparse", 5, True): (
        "5d5f2ce5664e943a85b30fa80acd0c6267a4e3093b3971d5cf5235ab2f3f40d1",
        "1b222c7e26f46a2802a0bfe496abf0a4b2b00ef0f306133c25ab36d1c4e70cf0"),
    ("sparse", 6, True): (
        "e6ced314af9503d106c0017c72db3508d7956bf6049dfb7b62826dd7f8705db9",
        "385cd14c886a28b972a111fa726c722e61264be6150110ba84c7956b0068e38d"),
    ("sparse", 7, True): (
        "04824dec50a7f2b3c97753fb8b3450e0ce5196db0f6b0c091a16f8765024a021",
        "eb2836e49fd08ad0d84cd588c974d9e97ef299ec8cea08002ba5da18477bde4e"),
    ("sparse", 8, True): (
        "80fc81beaab4bd420683edc04e2559b3e181ac39cabd5e52b77a0df2ca79e2e3",
        "e78d952359b897c592ab1a3ede8dd479c005b6100048cde405d988cb599c7db0"),
    ("sparse", 9, True): (
        "6850a5fe8cc906b7bb59c86e16a5b80871ff8bc044b2e9173ea4865e6f1b4533",
        "ac4bcceba5bcd7b3ec52c13d0810cf97f91dda0e6802eabddd6a66ad3d3b64cc"),
    ("sparse", 10, True): (
        "1823b0586ff91a09e320f70f76c9dc78d65785fedd9b4c1ad987247bd0d00f77",
        "23b32f4511066b3f4d5b0645f5d25c472ac0390e4dc1a4ac235971bdf88beadd"),
    ("sparse", 11, True): (
        "6d278c9e74f9b5c0b29ae862eaada7cc1a96c52abcb2a75676214e52969fc135",
        "01454fd3261ecad123eb4f3dd7516aa256076b064ed11dd9c1f1a307658174af"),
    ("sparse", 12, True): (
        "c29c0e9c8750edfc511966f3c75e38f10193e635a2c9f1f29625d9452f5054da",
        "c2e08c682ccf04e17039bed6d2c850eaa6268ff7857005df9fbf0a6a40950cb3"),
    ("sparse", 13, True): (
        "abc2e023ef6266199f4d7b21b24f372655ee98d7ad64a52e55ef9fbb85f57356",
        "0c697873f23b28ee8f3f5d3316c502928b389605c2430725714ef9a6ac0d06af"),
    ("sparse", 14, True): (
        "f9f2bad3850a6da829eb8892c3a7a7cdf6e9913f72daba5c33bddf641f095b0d",
        "3d18845ae89a816387baf7bec90a36dad3a9d5f76f5bbec45c064e4f751083c1"),
    ("sparse", 15, True): (
        "14c7e426d67299d41bb0b0f4adaf8ddb59233ce3400c97c2d3f31bfacc0f96f8",
        "4a820a6250c5f19beb0a0fd72c68c621fb2f3c558654c01dc601b5decff25ea5"),
    ("sparse", 16, True): (
        "2eac073a418fb303a922ff4d54317ab76ec0d98412106583b169154b0aea17c8",
        "db0e1e33f2728433870919d9eb2ef75e2a5c48265f16f41d84d2f3a9aff7b886"),
    ("sparse", 17, True): (
        "aab517ee9f219ccf8cc8acb74da67ca551deae7b19bd76807942b07035829ca8",
        "0a730123f1a15c74456af581869b2c1203e787ee910e9961bc9e295b9d5d21d3"),
    ("sparse", 18, True): (
        "852d7860f3d433071688e2afab9d45a76b72e8c0969ade5bc27fc30daad4b95c",
        "ac1065ac378ad5e1a463bc27a8ae6e3cee4d7d4c3b776dda2b43b48ba9ba343d"),
    ("sparse", 19, True): (
        "a908156810a7abdc8a02beba7c71af4044c8fdae6b9993ddb84d90e840517761",
        "85377a0ae2860b2ddb37ace72c712f8229eca0a2afe5cb0778f9b27a5429dace"),
    ("quintic", 0, False): (
        "0eaa13aa47801821cb3ea0a7820605089adedfc231762d0280be0feea915f450",
        "ea677ebdc651f79c55d1bb171cb0b606e64b1507fd09d9d0f133a5b9185be2f7"),
    ("quintic", 0, True): (
        "bdb3772d905ead7ac40266c274fb060bc4c1b9200799a5e8b5042e2395eec7ae",
        "11063948eb0e562147f1f391c36954c19bf70416f4102a3c97a61817744079e2"),
    ('corpus-mp2', 10, False): (
        "6a5f594665366a253a23a5ed9b09bef288c81b082d3e8063724b0912eea748bc",
        "57a740e879c933423815d310eaf8bbac850d6d95ac3ccdcd20b648bac88b68c4"),
    ('corpus-mp2', 11, False): (
        "5f5780d23c666583642cecac52bcd214e2ece945f626f38c46f7e110ee26f2f9",
        "32931f7d84632c84bcce8d8635e6ccb7ae2a844fae39ada10579c86f0c913f47"),
    ('corpus-mp2', 12, False): (
        "8e56ff2f66c4b642b3e4730173a2197e814caf912e9685f764fb59f6495868ab",
        "790f566d1cb44da2164deae5bcdc472b2b37deb9edcfd5924a8ed6788979ae0e"),
    ('corpus-mp2', 13, False): (
        "8a58b123ff1d7427e210e642e43539fa5474620d08e86b1b78f3e64d37588344",
        "8931c21c5973a74900e9863ad85479f8125e2319f8b988b9d60f4129570c31cd"),
    ('corpus-mp2', 14, False): (
        "148dc6c78270cf7dd58e4ddf51e11edc41525bf234981a742a524e9535d9636b",
        "399edf247f4430bee0b609d9378e51ec7ffc6ed861d6ad51ad28c2a70e25cb3e"),
    ('corpus-mp2', 15, False): (
        "0d23fd6f078a60cd89dc5b7e94a2c15d0f9f0ef5db7672ba68099bc821e50343",
        "ecf05111ce3021bac781b9083d9c9982c1355c2dff1aa9144e85560fd73dd193"),
    ('corpus-mp2', 16, False): (
        "343af7e1b502fd3888122b8af77256efcef9455ba8e67ac12b39368f954f3ff8",
        "e0a315949b99358dd015f79fa68fde57c7ab64193bbd07d1a7fffdc96cfc831f"),
    ('corpus-mp2', 17, False): (
        "d3c0fbcbbb2dbfb20f346205fb11f71d02ead9b1294b2c29b67d84872d0dbebf",
        "5f07c287662fddd52da275f1b5c5d1a1ef72d01c8bf86ee219393ac21df41934"),
    ('corpus-mp2', 18, False): (
        "511e58a55d71a64cf0540afe19e96b803b0eb95687843df1bd64a6bc53ca9dd3",
        "e3f8c36696ac1d53a9362a8f41271239776c80061ac3799332aa9d455bdc7ccb"),
    ('corpus-mp2', 19, False): (
        "c0f0608d65e38ac152cabfd832478e0f85351b32a8a7c3a0bfc45a8987951fe4",
        "a0952d698930bc91a07be0ed83c9d0612594e1e67d5f8cc2b581799ce3a04d69"),
    ('corpus-mp2', 20, False): (
        "d5b4fdd034a43250d3996f5fdf2f1f1184cf8f9b89599bf117fe84bf85b865c6",
        "b4e1fc30676034796515e85911ccad844e0ca614a84d9add6e250be5669ce3e6"),
    ('corpus-mp2', 21, False): (
        "390a09da318643d7365d07ad7911b4d9d6da70bdc9bd58b2dc74ae8a738f24cc",
        "90c1be3583e4a16e0a94c1fbf03b3b50947a98699edfa674757f750e1e8e69c3"),
    ('corpus-mp2', 22, False): (
        "fa54c94f8cd415211272968156d4509b087caea54af9dbbebf20a755b90c4245",
        "0606cc81ad4cde506204fdb6adca696af63c139a531f793daaa43a7a62b04951"),
    ('corpus-mp2', 24, False): (
        "ae5d8a3dda186eb29d4707183e1f8960e6d23e203585153263ee5308d3dda3de",
        "514053d2773a5a37e443794b5e56892d45a9b8347948d25ecfdc3e1f7af16c61"),
    ('corpus-mp2', 25, False): (
        "bb5af74c0b057afe7d20da4af0b2b2198bdb563f14924f56d484c111ad06787e",
        "339790dedf34085bf2069488e7ac41aa3ba9282b233145044c5b406cefd4a121"),
    ('corpus-mp2', 26, False): (
        "5571660db3d7968cbee9922628bfe8afe23b5549a1e13317991b8a91bb3eec0b",
        "9f06e8dc2c8dafee622debc858abd14557d776428a982dcf3adc281012a0f828"),
    ('corpus-mp2', 27, False): (
        "f7c548442dc2737d30bf5e94740d50babc092574b3853bf283535ea5893263f4",
        "7feadc0a47f1cf91860e997eeb2087659d01d0627a63108554a58651760c7cde"),
    ('corpus-mp2', 28, False): (
        "8f37bc1b352a7c4fd58f2da6a42ad120b99182ee396bdcd90f73496266194650",
        "4d0c60e817026049dcd8daf1d7b0adfe7a9269bfa296bde8106072867786de91"),
    ('corpus-mp2', 29, False): (
        "0bb8727fcd7d803f741b08cfb570c7a9c26838ed32e56d67dc6c5320dac50671",
        "e020735fb7fc963ad0f68356643e7015154b1885ddeae72cdccb6dd9918d9e16"),
    ('corpus-mp2', 30, False): (
        "2f1d62ff10c8fe27a0c9687d4bb1c923775c5a9552feb390b66543c91bc455cd",
        "1e248dc1e78d88e18b087c0e478b33855e236ad6f4edb3ab9f0fca017ed6e6c5"),
    ('corpus-mp2', 31, False): (
        "ba71dbe8065784cae98ad6c4387ce8c966fd61a8b372693b12401a067c5de6e7",
        "6fe9afbcb4dba35e5b4aadd168092f759ffee5989a7916ebb01fd83bb8468caa"),
    ('corpus-mp2', 32, False): (
        "2775853ab7f66402c0941ea402096f38607839f2e0cefb1fca08addde6f5fcfd",
        "35136ddba05fb7ab23188fff4fa0701efca18dea24241a65c680a80d66a1bb6e"),
    ('corpus-mp2', 33, False): (
        "49ea577d24bc808c1802b9bd83312f4d7fa65a7130d972fa8dd1019f576118bd",
        "150294a5212da9b50a8768bca7bae81d44441d1c8386fabc8f8977dd8144ae61"),
    ('corpus-mp2', 34, False): (
        "dcf7e10461211fe351b94a15eb05b99433bac281ed0e686f554467741be239da",
        "56a9746db23c30906624bddcd21b06e01a5136c355c362c7ddd7516f0b178fc9"),
    ('corpus-mp2', 35, False): (
        "6872de2b221a82a596dec2aaea20467d73e8de1e1b934df9f1c12bd1ef73a16f",
        "c84a523374dfe5566ccb6846d66be64d07e9e5c9d4c698d49ed5a13d4acee320"),
    ('corpus-mp2', 36, False): (
        "5af03f4a28c9b7183b1fab5822c7c8e8191c11f7f07dfba80b77bf6b8279f681",
        "3399408d0da33725580ccef11d374cfdd1994ac2cad609409835d5faed88473c"),
    ('corpus-mp2', 37, False): (
        "984591c3c878138d27b98d0778fec3189bdd14e05c9c4aeb47aadcad6039ecc4",
        "d01ef8e546f1811c28fed0964fb9a442349a782190932db0ef5017be197a2fca"),
    ('corpus-mp2', 38, False): (
        "abfd03a23e23baa9525766ce6fa12527a89e6c6b96ed0d34899ff94b9ae68107",
        "b3da074bee15986ecfe78e220179abfbdce8de2f5f6b13dec5be9d3ea2c49b18"),
    ('corpus-mp2', 39, False): (
        "9cdd278de609dc450f21556a2c34b47b53d28b475704843bbf489b8234177206",
        "886bc3c36025993118500a95c1bb1487e71e9173d31cc87f962188d2844df9d9"),
    ('corpus-mp2', 10, True): (
        "63cfb65a8c06cf2a4cd442ae94bc36a83dcd70aca0caa6dbc06078281900e7a4",
        "fb168f7338c3e49f69d396a0e8c6e9a3a8d0b849397df07135a7c99c3019f010"),
    ('corpus-mp2', 11, True): (
        "9be58c09834d59d5ff957d10b5453f74df6e9c3bde6329ef0506df641ba164d9",
        "86e6feb99404570f9626461363c42eb4c1723eaffdbc0d484eb2f483a11a9e5c"),
    ('corpus-mp2', 12, True): (
        "b48cb0df6feca759a8b8962d723a0629040b3cb2e39e472db355e931a42a6103",
        "9d93f8fc5b2fd2a007bfce6fa18b9f0cabc2e0cc6c5d5a7714adf1f017fb1cc3"),
    ('corpus-mp2', 13, True): (
        "6b638d28c7565a13b0333f29afa25f16e261e487f4af4f9ebbb8df1bb0ae0b7f",
        "031e49db4aaab54ecb174ee7216252d497dda4598b71202549fbf77b338bd8cb"),
    ('corpus-mp2', 14, True): (
        "e2e362550bb665d89680915cd5ce13a6cb02d896ab88b8162433c5dc4d47a19a",
        "709a8b497bf2e009c84edea7ec84a742946a7e316eda18b8b7028543f675f86c"),
    ('corpus-mp2', 15, True): (
        "ddd3757dbd842015b7f8c484003acc0a785a18c53fcda8bc55a187c91762b4df",
        "692b719f8c1c587639fbb770810525783152b7f704fe56df9e0c4801cb3a1f6c"),
    ('corpus-mp2', 16, True): (
        "99b96cb710381b45de8279fde9ffdea040a2026b27f0cb1820520c1f5847c010",
        "e9fff26b8e6982955e8e51335f1f088b0cc9b465c95295b3b0ae8411b22f8793"),
    ('corpus-mp2', 17, True): (
        "ed705c46079cff19cd02b3831668a48eb22443a998cb5a4812bafb71449aaa44",
        "dee0ce8504c54d74d3edcef9eb2a05716c3f46ef3ea806c5bf91043cd1df9b6e"),
    ('corpus-mp2', 18, True): (
        "4c7efab8d289f4cff5b97f73dbe805386bf9b63bd79a9df828cfcf8fadafdaed",
        "7b52da407e0ed6b1b5cf6583d94ded62a1d7057365cc2f11ec1a4c3b2cc6ad27"),
    ('corpus-mp2', 19, True): (
        "b18f11f26d13f87a7f9d6cf88de37111dfb78f046429a7b53b8fc94cb0d93550",
        "f29c906018e979dc868aa804fb9168047127096ed1f04943b09ce99e1b49d2b4"),
    ('corpus-mp2', 20, True): (
        "38873a9b299371e6cb60368799e84e3f261741e3c2b7fb0531e7978e930b54a8",
        "762ac682c13a5ed240f2d0f979dbc041de8433357f9f3c8492699b637035ae5e"),
    ('corpus-mp2', 21, True): (
        "830341e75420d4ac09d8e534e89b549d8efbcbd90bc07b1773b9750a14f74eb5",
        "12352f716c6b97b75b6eb9561cc325a57986dd90a8ca7ce826f903ed60a72e10"),
    ('corpus-mp2', 22, True): (
        "856d571721542b8e218a9845dd427e79f5ea4c129f03feaf484c7d18b2151782",
        "51640ec99d32a82c9faf51d228ae892d53edd0280ef3b268ed3a4fe9a2e6cec3"),
    ('corpus-mp2', 24, True): (
        "c11128e4eb8baa775342b8311b1717ea71fb899abf0d6716e7dc55b121b61f6f",
        "ab46061e5691b9f805a9eebfd85812b0c6c2fc2f6e265989f3d644b5d6495ea9"),
    ('corpus-mp2', 25, True): (
        "84713e04c77cd1b2d298e46bb7a4fcd5426b4eb1d89516973a4ea5f8de741d42",
        "8514de0acb75c3465b5cec591b3c88881803695956dc90db7e86ab9d9882ddd7"),
    ('corpus-mp2', 26, True): (
        "7ad3bd1c71a143148ea422a8d10f782451a6f42f480e7439e91103086500850e",
        "024929367625e186c4cb33efdd67e5583ab8725c0970967100dacae8841733e3"),
    ('corpus-mp2', 27, True): (
        "909db4edc3fbd5b62f847699bdea8ace2ffacae12b60ed2483262e6776573ac7",
        "90134f6232a6fd0ce1dc9052800d298d607dc57235c78c3631e3b429bb699a90"),
    ('corpus-mp2', 28, True): (
        "de22359c29be56e67de504b3dd946cc518d6ea51441890160246c5de3368d8bd",
        "585cc740bc3364f8cfb366f8ad09f5913576aa14eb3f83ad3894bf14ca9a143f"),
    ('corpus-mp2', 29, True): (
        "6ec15c5a4a3c05cd734979d988bf66281f2a0bec8012c9c2f25b606166de4639",
        "5321bc8676b924fe1a1f9546e0594080347b0fef7c75d4d09fde4a898cb22bae"),
    ('corpus-mp2', 30, True): (
        "d14841120e32a98ae9e0fbd98d03ba8f846c9e3a469e395441c6b6cd612ee308",
        "e67cc2199d583dcedbc8f00de25103dc7f6c6b84700e0f8f86e10e92ab250ea7"),
    ('corpus-mp2', 31, True): (
        "652ddb8c0b5f25d4bc38e73f0b89983011c75b966a3e28ec27c05ff8f9a5e8fc",
        "db4ffeb043d726650d4889b26c27f248437680c82d21e4c47303e5d1e3f667a5"),
    ('corpus-mp2', 32, True): (
        "b4a97a32d563635815f4f46828363d76ce65cf42499610272519b1e7fdb6c1b1",
        "2af5bb5e7d4d45ed8ab3417de19d42ffc977230a4fb75d85de0d1a46c9d56025"),
    ('corpus-mp2', 33, True): (
        "a1c4b6404245fcaa912c1eb4c5e8e9edc54ba0cd4da4086a46f7ee7d2b0e35d5",
        "9fa58c94c63323354e23f560baf8f1cdee791613a98be2456b44ca402abf82d2"),
    ('corpus-mp2', 34, True): (
        "dd7b6cc9ebb2e7597f6c5a2a65e459953dbc7dc09209f921990ca9199a29b285",
        "3b27e66d013b69e1287120465c66ca42e4c39f5cbcb305247b94cb02687a390c"),
    ('corpus-mp2', 35, True): (
        "d80954ba85cbd01666e12f91749fc3cb3bee7497063420768f0bbcfbfd91fd70",
        "0d986a74307e0dd6de8c9950690e0a33d09c4e8431586fe15d243fa414bda52c"),
    ('corpus-mp2', 36, True): (
        "e36b738fcc015804cb6f2b8922441a32b9cb9ea065112953c33c9abd151d6830",
        "1753c63f9227a39167195b9c547eacc0e68f7604b0849ad6ff6380d84c2eb595"),
    ('corpus-mp2', 37, True): (
        "d0d47d864780768cc842992a94af2926efe69010dd340c5d24be63ef427b4b44",
        "86b826afe4ef29b54b756b098323562552638e460245b17872d217373c668b64"),
    ('corpus-mp2', 38, True): (
        "2db2aeae3fa636fa9df23b59e243be01376a3bb1d57b8f56e626267e143b825d",
        "4957aef65ff061ff45b8b0cf66b58950709695464a651a70c7688daa1638a07b"),
    ('corpus-mp2', 39, True): (
        "ca2c8645631eb25e25811ffa410599857a4ee03961fd4d5255ed7a75c4f3f671",
        "b617c4dec4aedec26cd340abb8927ac02fbb41d7c7f9d617944f06612c83330d"),
    ('worked-mp2', 0, False): (
        "773e573ac34f974b7194544ef4e377b43afe0b267e961fef75c58057ecdf3053",
        "5263a3c13ca5687761d652518a5718a8fe6ffc9293e7ebeb652d15525deaf7be"),
    ('worked-mp2', 1, False): (
        "fb098e5dda74b2f69e90de747c0aba07f13bce426e5d88ed639a104b1a25cdf8",
        "b5c927c06f810e229e963bf4b54de88bf2e15979b395ed467a9c97fe852007cc"),
    ('worked-mp2', 2, False): (
        "a00213b3625bf85d419c547a60ef77010b8fb7086d9338b379546fe283204586",
        "1eb065dd5a0a635cb2671cb672f88c7cc14074e43620fe5feca19f132f17e515"),
    ('worked-mp2', 0, True): (
        "a5674f12a41f39a79269e37d541a6a8a0c828d4c288b149bd656a56e6aaf9c4e",
        "2cda7e98f8c3f40e1f590a4247421856a0b177801a0bae543571702ace1d987f"),
    ('worked-mp2', 1, True): (
        "ea5ae17a6f187350cf8cfcacb69ae3ea3076b827cba13b902af07e75ffc9ca26",
        "c7ee4200901a25129629c11b4c24fbf89290450aa4e9ce41abb38c61d34d9839"),
    ('worked-mp2', 2, True): (
        "652a76d466f798ad6949f591b2390cade8373ae2a55c419204491a714c812a16",
        "be6c718143a2fe14d61c6c1d165ee5f43bfcd1b7be6a4c643b06f9e0f90aa28d"),
    ('named', 0, False): (
        "40e752925889dd5e76a0ee1b91e14a43e9e6c181f6c4722927fca69d3128af2f",
        "e615c89e6fdf8b9730bbced0b8ed22ef7ab4350a97cdaf4d9076257e84ebb144"),
    ('named', 1, False): (
        "e4105332a183ff711716b1194852b6c18b7d120438c35d6c58a462c5ee3cf77e",
        "4c3c6dcc2d2c5a87b1d9c78a6f4fd62251f29d7b95ba0f9c60cfd8a1586921eb"),
    ('named', 2, False): (
        "39efb5848a1805c84fe7e89d81f9ca85de6c26cfa84e7457e040edfe84d795ed",
        "060413c318c3ecb715744b899d411f60c7bce5785625ea9b05c20867c84196ae"),
    ('named', 3, False): (
        "be03ace0deef20896a7c68b3a95000ebbe2d8a99fa72c22163191eeb903ebfd6",
        "3379811f41986f633669c9f699348aae08d0bf97f304733874c357f4cbe0adb2"),
    ('named', 0, True): (
        "e356f310d026f84c6c93052ed2d9a5229887918187fb18f4f381f33413371f9b",
        "c6c871a01bd1a256e94261a3fe709af6503f3c0d3c7d956cb2f640bf995aa3a0"),
    ('named', 1, True): (
        "2158ffb7eb6b4e12d716a96cfdccd50b2c691753ce58e122b6387f570e57ab8c",
        "b037d4facbe0d2278a1c490cc766c70a0656107297d3d5896db35581e6f09a0e"),
    ('named', 2, True): (
        "8f912255979ce75ba9ef88a3184276071a3e481d4aa29839f8b9f797e590a65a",
        "6cfe67f46e22f6b4887426845adb3906a9500192df7d6ea5f5d062b8dfaa819f"),
    ('named', 3, True): (
        "8cecf54d78c505b551290b9a6de55805bfb147ceffbdeb55c1a9b4b254649694",
        "e45685455d47dbe5c074e85baeed2f93682a0469b4d7f559576fe575172b71aa"),
}


class BoundExceeded(BaseException):
    """The per-map bound passed; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise BoundExceeded()


@pytest.fixture
def bounded():
    previous = signal.signal(signal.SIGALRM, _on_alarm)

    def run(r, config):
        # re-fires every 50 ms in case a handler inside the program swallows it
        signal.setitimer(signal.ITIMER_REAL, BOUND_S, 0.05)
        try:
            return run_analysis(r, config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    yield run
    signal.signal(signal.SIGALRM, previous)


def _random_sparse_map(rng: random.Random) -> RationalMap:
    """A map of degree 2-6 whose integer coefficients in -3..3 are each zero
    with probability 0.65.  The degrees are drawn as the acceptance stream
    draws them, and a draw whose degree drops is drawn again."""
    while True:
        d = rng.randint(2, 6)
        deg_q = rng.choice([0, rng.randint(0, d)])

        def coeffs(n):
            return [0 if rng.random() < 0.65 else rng.choice((-3, -2, -1, 1, 2, 3))
                    for _ in range(n)]

        p, q = coeffs(d + 1), coeffs(deg_q + 1)
        if p[0] == 0 or q[0] == 0:
            continue
        try:
            r = RationalMap(Polynomial(p), Polynomial(q))
        except RatmapError:
            continue
        if r.degree == d:
            return r


def _sparse_map(index: int, twin: bool) -> RationalMap:
    rng = random.Random(SPARSE_SEED)
    for _ in range(index + 1):
        r = _random_sparse_map(rng)
    return _floating_twin(r) if twin else r


def _check_report(bounded, r, key, config=None):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    try:
        report = bounded(r, config)
    except BoundExceeded:
        pytest.fail(f"no report within {BOUND_S} s")
    except RatmapError as err:
        pytest.fail(f"coded error {err.code}: {err}")
    data = report.data
    jsonschema.validate(data, REPORT_SCHEMA)
    assert sum(c["valency"] - 1 for c in data["critical_points"]) == 2 * r.degree - 2
    assert len(data["exposed"]["union"]) <= 4
    assert sum(o["size"] for o in data["exposed"]["orbits"]) <= 4
    codes = {w["code"] for w in data["warnings"]}
    assert not codes & {"cycle-search-failed", "cycle-search-uncertified"}
    assert (hashlib.sha256(report.to_json_bytes()).hexdigest(),
            hashlib.sha256(report.to_text().encode()).hexdigest()) == REPORT_DIGESTS[key]
    return data


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
@pytest.mark.parametrize("twin", [False, True])
def test_corpus_map_gives_a_report(bounded, index, twin):
    r = _corpus_map(index, twin)
    _check_report(bounded, r, ("corpus", index, twin))
    if index in MP2_CORPUS:
        # on the same map, whose memoized solves and preimages the second report reads
        _check_report(bounded, r, ("corpus-mp2", index, twin), MP2)


@pytest.mark.parametrize("index", range(len(WORKED_MAPS)))
@pytest.mark.parametrize("twin", [False, True])
def test_worked_map_at_max_period_2_gives_a_report(bounded, index, twin):
    doc = (DECIMAL_TWINS if twin else WORKED_MAPS)[index]
    _check_report(bounded, parse_map(doc), ("worked-mp2", index, twin), MP2)


@pytest.mark.parametrize("index", range(len(NAMED_MAPS)))
@pytest.mark.parametrize("twin", [False, True])
def test_named_map_gives_a_report(bounded, index, twin):
    doc = NAMED_MAPS[index]
    _check_report(bounded, parse_map(_decimal_twin(doc) if twin else doc), ("named", index, twin))


@pytest.mark.parametrize("index", range(SPARSE_SIZE))
@pytest.mark.parametrize("twin", [False, True])
def test_sparse_map_gives_a_report(bounded, index, twin):
    _check_report(bounded, _sparse_map(index, twin), ("sparse", index, twin))


@pytest.mark.parametrize("twin", [False, True])
def test_sparse_quintic_gives_a_report(bounded, twin):
    r = parse_map(_decimal_twin(SPARSE_QUINTIC) if twin else SPARSE_QUINTIC)
    data = _check_report(bounded, r, ("quintic", 0, twin))
    assert data["exposed"]["union"] == ["inf"]
    # the verdict the quadratic dedup reached, in 51 s exact and 64 s as the twin
    assert _verify_critical_invariance(r, [INFINITY], PREIMAGE_DEPTH_DEFAULT)
