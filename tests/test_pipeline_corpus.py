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
        "b38dae8d1ca80fccbb0ca8439a6dffe982695a76ffc61b3e48d99cb6d842d115",
        "6f2239b9247c8c8c251cb7fdeba1c0438aabe5dde6f874d3077cd8206b01bac9"),
    ("corpus", 1, False): (
        "52be2a03457af280b96603d1f238c62f3b5013964168e313bc4e02c7d9d4e61d",
        "5a5af857c7d21459ac03d79b8ca4e7e8abec5c97ac2b765c34d2169704bb8615"),
    ("corpus", 2, False): (
        "210b3a3f0c65032fee009978a6a22dda913b0c65722b21b21acaf4c09652b9d8",
        "b874d293dc2d7087e9d8b2be4129bc4d0511dddf045ef808d4903d7a2c93ed95"),
    ("corpus", 3, False): (
        "50467d044a36cb906f5cc7c9aa85ba93a4ac7fb7effccc63667ee97b5df2f368",
        "308bce9dc6119943007cb6c10e4d5a377bf50c0e8e08e6d0948a5b3b78f4f1ed"),
    ("corpus", 4, False): (
        "271ccac2a22e8d62c0b727fec15b5f52b18bbdb6f6b9504f3abdd311780ad53a",
        "29e49ae5d896ead370aecdaee0b3354a0efecf5b57245cc0a6c2e42b9dd7b6a9"),
    ("corpus", 5, False): (
        "8e822f7e88cd5c4fae97193fa22eca4cc71c792d0a0d174aaad093ead9c77e1c",
        "db7c3a3904f4957bd3856832eacf92404f177f9176ecca3dc4495ff2685ff9df"),
    ("corpus", 6, False): (
        "e03635f7794e883ea59eaa0bd330a0c2336de3724b83d39fcb2778bd4475dda7",
        "81c8bafd5b842914f64d5a36650ab7f3b1c5661ff1a475cbbfdf5b75fbf9af11"),
    ("corpus", 7, False): (
        "4f73de477cf1a5c74c7a0c0751dcfc12edd6ee4692119c65bcc01913d95c287b",
        "fdf13c8396b072e6f2efa41d1dfaf8d4fa3217ee42a2bf57effb8881e8100789"),
    ("corpus", 8, False): (
        "ae4e640ba07d44ef610b71b7756a7cfb72030576fc4750c47c5ce3eeea11ca48",
        "076d4bdd32505ad0f4734a01dd2dbea770d5d7d648613e296bc17e378215e84a"),
    ("corpus", 9, False): (
        "ebd817d896cc674d157f7a3e68467870038f66143bf8d9ad145b101149d68d6d",
        "30757ff3c07b739648612a59229e92521ac84b55b14189f12122f9f478ecbf58"),
    ("corpus", 10, False): (
        "1f616946300ca4d55fcd0400679404fc8bc26051f19494714019112681386a5a",
        "5d41a2ab177d09b6bda6e204608b882fb7ffe96e0b75a4a7cfd3e704770c1017"),
    ("corpus", 11, False): (
        "8f3e6ec91d321696869c9541373dca35e9f6a8706140a96abdcf40428d992000",
        "8ded7e0bec460780e59eb5420fed6782da063707269f64a1bdd7b6a12c6c056c"),
    ("corpus", 12, False): (
        "d6b50c64e51a28b2a5035161a92ef6ff30d38d105ed9d5a03e16b4adf9eef7bf",
        "cc9dd4f24102b354d889e9a85fb31e40e9a5b53f4188c21b55fff889c565cdaa"),
    ("corpus", 13, False): (
        "afa8945783ae74b4c72447d862265e6644a5f80ec6a708fdbef881eee0e80170",
        "cf68c83e0f3c00900a81b16038be82f72beee54ad89a85595e18b84029fc200d"),
    ("corpus", 14, False): (
        "1a27ecc0aad46193f37274cf32fcb2dc4ea8cf81ebe8fec0a6b187d67ca532cf",
        "6156b5c0b23665b7c38a6e4aebb68300b99f5dc8ddded90924bdbece7c210882"),
    ("corpus", 15, False): (
        "a784ecbbf312124d7fa1f042503f0b4c7de11ef0620114ff6aa7698b35bafccf",
        "2b881e1d71251c94c857db8a78f119ce9f9b6e2b5d6dc0b1ed424f76eaaa4f60"),
    ("corpus", 16, False): (
        "579a164e3a0f005f4f23e089e131e32953fc8841cf3be00fd37abb5904e1b53b",
        "168a73bba99e4f70995227113f1aa1bccedc42a7ec0f85f230199fc0bd787abd"),
    ("corpus", 17, False): (
        "0e1ebac6dc9d5bdcf7d49eec7e87a911a507b9f74462f96a92d545d329f7b18e",
        "3c68f9993253d4151d11a769734338f69419ae2d359045633f3e62bc52062e44"),
    ("corpus", 18, False): (
        "302041a0e7b81f7ddbeb36b0b5cc877455a3db0dbf36392134feb8c3df5af0d0",
        "40e5f06c990340ddb2ed16196086f78d622a55bcdeefb22bebea6c8e6fb795d2"),
    ("corpus", 19, False): (
        "63e54322474a2e06d422caec46c7c402c17b0ab3b542cef34a2fa8cce489f232",
        "7f290fffd9281ff6c35cb94564a74c0bb5cf7a8043fed0c7a055cc375af2acee"),
    ("corpus", 20, False): (
        "3a0e7ca20ba27efd79683205906877a9a40216860688276a13fe96a969c3ed8c",
        "2d99ba15ad46a6c060d2aed9b58dd220aae1aa87553fb871ba28ba4fe2d1ae44"),
    ("corpus", 21, False): (
        "e56e24642d8040097d5d1af9124df05654dba84e85a52e8d1eda7e1f55da2d1f",
        "1cba1f674899d582fb7012d100e7cc2a8237a903882aad6e5039d639e04b09d9"),
    ("corpus", 22, False): (
        "7763687043319bad9eb99c5ced318731e8d8de1933b3f8b7b6a8761770d1e98a",
        "e69f2be986974b8c69ca3c80231135be7ba1ae7cf4200d359ea25067d0e78789"),
    ("corpus", 23, False): (
        "f8cf84c69b335bf7774de3bea3653672644b5a179eed6c3b29d9ff5f80a16730",
        "c48b0ae0731ef071aa4b24c66e850c120a1395d13dfd880e608154b4d5d4b2a5"),
    ("corpus", 24, False): (
        "8e081c2f1cb50bed6522591d5cb1e54df4bef2cae3b50500ac7385a00afef6b8",
        "a73f49b8ab3e7cf201acc793c2238109cdbbd3fc1d4f051cdacb41d4e8495765"),
    ("corpus", 25, False): (
        "e6f05bb65962c9b426ba31189bd3837fbff76c1b3ea58571a086491198504908",
        "0bfe09f09aa5f6fdeb6afd9f90d9b0552480f5ac0711d91e3f1cab29eb87a8af"),
    ("corpus", 26, False): (
        "c0f71c482657a5bf576a5f8fd396f1fbf054ce9049ea8ed0dc218b65e9fa64e0",
        "70f142e9d5ab467e7a8438d09ac51a2ea8e8d732e753ed8a03a2d4aa3c1d1345"),
    ("corpus", 27, False): (
        "f4e5ceae9c64f810cf4ac96b002839769b8c8bd5b5a127c793be6e793258906a",
        "bd4bb0b0314ed20c9ced1db5d19e9cd61d40329f774e8b48ba2119a0e5af00d3"),
    ("corpus", 28, False): (
        "547764fdadd09d0b2fc892139a6e70c1fd973605c4949e73a24261b8b8de2f33",
        "c3e42b3cd23635aaf5bf1c24f746dc7a49447dba22410dc79edd7bf04e026da1"),
    ("corpus", 29, False): (
        "87a753e9869f34959c89aa53ff3f53976095449694d7e80cb91d2a61060b94ec",
        "68774ab3791a6e64f9d3741c5ef1ff9368e5d9491cf6406a424e93b973a4385c"),
    ("corpus", 30, False): (
        "e0b36585856d62ab45af63a8136213b268c029c82667cae8bd68ac4c286d8c79",
        "6463b3ddcb2144153b082be413e14cd601d01870cbe06cbae74206e348510623"),
    ("corpus", 31, False): (
        "699cf6b0e6bbfa91579c58a2fea528c297bf755b7fb8bc14bec81ce1a2eb3699",
        "106e978f0734ae34cf59b6320610b806ca990c7bde3042f4d83bfd954c33dda1"),
    ("corpus", 32, False): (
        "8e376ca41fc9748eb3ef7f2720084b4db67a5cd042613229bf187685768a9a7a",
        "47a9797b859fad4adc94b07d749600536ffcbf4636319966c442963b437b1c4c"),
    ("corpus", 33, False): (
        "50c59fb1ce72ea2ccb365e5ca062394bc74f90bf7c6b28413a01dbbba1f0953e",
        "fa4d043d0e81f1c192226f6ab4a4301d8380d3183e18164272a7b248482c0920"),
    ("corpus", 34, False): (
        "ad43fc445d833b2df1350131afbb55000d0043751d9ef56a572df80284dbb1fd",
        "22db1a4a1eda87362626fdaac780cc5d280a3202f3ed7ecf3f11d5728a0d5628"),
    ("corpus", 35, False): (
        "b72773c4df37a626ccf1cd325b00ec41d55959b1303028a93d295b5784bf4088",
        "e2d0f98380810629a0cd17da015388ec5cc1e426c50ccca1d73c2b16d7b673a6"),
    ("corpus", 36, False): (
        "d827a027e8683dcb0d2932026cdf8a4ddd8743c135d55c0060d0c3b41f3a3bd8",
        "37eaa250b467bdc96062a7c4c56644098b53bd179d4f9dd7a05c6ee06b2cb7c8"),
    ("corpus", 37, False): (
        "cdfe398bfb4ec461b56a4b4bdd46ab4d87646a584fbc58425e7bcbcbd902c2bb",
        "b052b1520941979e91525f66bb81d2f23e2ee2953a92cb6a9e638fa693780a32"),
    ("corpus", 38, False): (
        "b515ae6ded9d14f15b5b4fc54a0404c636c9a49a21cd563dc12686e66e276ad9",
        "c4924537b73ac2ed71850e0177eda1ac4c2e363febcf017dd9ef51081454c68a"),
    ("corpus", 39, False): (
        "e5a28ab41c5667ff23b0378181335f1f9fa3c43b45bfa4ea4d78b6c19bc9feb9",
        "52b017997ef5ff4a729036c52c0f07dbc871ea524832220969824d9b087d8c10"),
    ("corpus", 0, True): (
        "77c0a44e86d630531f1cc9693e837b6acf79ab658f5463b27298c72e81e0d272",
        "be2cc7673937df9fd824a67431af3aa8c001685b0f7f50c1aec0fad23eee5750"),
    ("corpus", 1, True): (
        "0935eb5bf4dc2cecc857f7e9d1b97a65781020a4ec73e27e165d5c97d2b4f114",
        "63ca9c33d34d1354214ee8bce0380772bccd5bf511d327a996ce9f4986f8e7d9"),
    ("corpus", 2, True): (
        "bc203fc3f4803cc223419d5daaead894b0602275966c4de2395002c274016a8a",
        "ff6c12ebb1de4bec7340af401bb373e66f69f3ca020f21b78efe966cd4ad0635"),
    ("corpus", 3, True): (
        "860e5e918fe72ce73945d1480aefb2f55ccbba507d87bbbbeb42e6adde630b52",
        "99c8b2430b115b1ca5a1f6cff3294d5115c5c34077db8fe38cdc0e87648188bb"),
    ("corpus", 4, True): (
        "c295decfebcb3d1426e2a42ca392e9b70f822f77682175b7f31b41348c7d04ff",
        "aabe949cfe1e3a411b54c277b9a1d42dae979984af5f637f2b8e2af67a6df335"),
    ("corpus", 5, True): (
        "e0886864e83d653bffe30cc1a46a798e784aef44016461dc4e173ebd842b6af6",
        "e3d0fe348537e2047fcbf806f49d87459edb7f40dc33ecceef8a8782b3ed87c0"),
    ("corpus", 6, True): (
        "75845b2558844d13285e9d686d821ef0f55dda7f6611567133ace5b379037789",
        "07fd9deff28e32678750c8ee582caf127a8a84ea36dea1049561fc9124f3a57e"),
    ("corpus", 7, True): (
        "d9d087b9fe2aae71fb380d1e44b6eff1d19233916acb68736cd47223c89cc4b0",
        "7d271cb4706098ba99ea6be00b226ac7c924397223574d9e72fd3d998ed97cbe"),
    ("corpus", 8, True): (
        "fe16ff6783b24335935adc889c0f9364f020ee2642daa137b95ce42f3b8b7afe",
        "761bdf337978f2ffc2ec5e5d6249499fb3329c7fd90ae278326f51eb08643dab"),
    ("corpus", 9, True): (
        "fdbc7cffbfea3a350e5421be5be165d80f36761933bdc40b7dd7812e3d6b4431",
        "327bea64db38818555f71d9bba361747029edd336e18b0b903d71e47bbbb9b68"),
    ("corpus", 10, True): (
        "9935ccb0ad6f9ff8287001558b23a08858f64a876ce11d8e78412668cdb69b35",
        "bdc615c7b676ad227cc2dd3c893093e6e026150378c6c2d4f4d65f32e5870155"),
    ("corpus", 11, True): (
        "a76e5220434966eadda314bd51cd8099189b5b14621b3dcfc37d9598230e0e5a",
        "3446cfadab3e487ee85e71ca08c94679ef7a58535fdf86bfdba9dd0de08055dc"),
    ("corpus", 12, True): (
        "08a1fe0a554334ff8a3ae8cfa7e45bdfc1258258c161fbfb8a12f4fdd286e1ef",
        "a2e34d1935cb55e9b0f603d57565e8a47f30f8df54f1647a645b6967e4de528f"),
    ("corpus", 13, True): (
        "416586ca134dd748d2894346be848768cf5d0ea29b4f7a2a35937da05b21adeb",
        "5bd3b5c37b315bbffb8b6fd278efcbf42f0d32e836eb7c006f53013773e81bad"),
    ("corpus", 14, True): (
        "880c4ed1586b0c64ba0f9ab7a0261c602adb431100969f874a968d53e1f8948d",
        "4b8fe57ba5ff19ceb3a2f01500be8d68c347dc24d352ea4d1e7fdfaebd55d8e2"),
    ("corpus", 15, True): (
        "ca70ddfd285f9610deddf36f310dfd8f4d4360c7370b3be81d2288fe7dcd2bf8",
        "525af24f268eaafc583cd70b4e2ad5d38109fbfc39096221c73f6c9514030bc4"),
    ("corpus", 16, True): (
        "76589bad2eda2eb879c5105b3fe4ce6fc7982c9fb07fc4fc0fad0998e66f2cd6",
        "6e1627b200752680d2d07e20b6f2669c9caaff0019a8ee60e295977db77138c3"),
    ("corpus", 17, True): (
        "643765e5bef3ac8dec37aa796441f9443cb010bef5a1590a35b352373169f243",
        "61cfffbf16624f729c150a58791df753bc047ae76c4c58d0f98f677d88f706d6"),
    ("corpus", 18, True): (
        "374963bc81934b205c7479a5f41e308ae18d80133e13d144e2a4771d3945c82c",
        "d7b97c4b4397dab85a5c91adeb8c9e9ad63c89db5cb6ab97fec2186064715daa"),
    ("corpus", 19, True): (
        "f279deca20984892704ca48bde721cba0b6ea239030038f908a3abbfa46e4749",
        "6b08c3db5d09655f2bda9019db76e5dc9e084ae6960aa8ff87ea08933b08359d"),
    ("corpus", 20, True): (
        "0900dae78e58943fa38c3c5fbcff0631f7783a6e608c9bd2e07d92e0e76977e3",
        "6d5d72995b94c19e4e504c5b073cf57ada2a8f6180d04e51467e9d177a2f1d71"),
    ("corpus", 21, True): (
        "ed64c97e5641f785ae405a8c16932a49ebba8dc4861297ce7fc5e096df13ee2c",
        "631475fc53c53347115df70bbe876bd17ebe80f30201dc35465270800ab88b63"),
    ("corpus", 22, True): (
        "52d4eefdea458344195e4fc325be7735b23b768601b1ff9a20dc73de67037450",
        "e16f2983dc12bf2c699f66f7425ca1410e3bfcb2deef1851f37d3d909eff7717"),
    ("corpus", 23, True): (
        "ed2f98cf27f33661b8063695eeca91546fa5ddc6919c3d38ca730382ce7c589d",
        "5d79067ff7c7ea5fa58bd9eb9ec34abb83e49b904de5f547c1ae74243d656de8"),
    ("corpus", 24, True): (
        "4b1808e22d64800df2140edb53fd541eb63c1d5d6c2249ee3bb0f5f2d973cea6",
        "4ede05ed4ba5c46e2105d1a07fedfcfb4f58c3634e9d06925edd9d368b18471c"),
    ("corpus", 25, True): (
        "dafe2bdfb3a907f2f27498d21fa62638274e8b2d4b79b76f50dacecbe82ed8ca",
        "145ebfe07b61bccdeae83d44b800675c69b03fc24f1429916c937a3aaf8826f6"),
    ("corpus", 26, True): (
        "ed9d25aca3d6c0dff364767429975a795a36a3878da5d41a53f260e75da50259",
        "571251e47c78761491e7333789939379d3d14e1ef40b1c654237b52493b914f6"),
    ("corpus", 27, True): (
        "f9a066abe44bcaf8be45688182c58d1b151e5b0cb43a11b5c752c1c8574c1a77",
        "f0db1f8414ba21f729b4d07ebd21dd8ece3636e5da2ec60933d3c249edd044fa"),
    ("corpus", 28, True): (
        "fb26e09fdf4af0b14bc813e141d30372e5edad144a45419249a05a2b82d623e9",
        "e094888b5bce0008f587502402318d523ac8f4818be9412497b0c0ec61da8d64"),
    ("corpus", 29, True): (
        "cea4bd79bde12a76829a86ed4c307e492ffc9dcbad8fb7dc440aeaf89f3bc586",
        "063089ae372594135c1a6e4cd481e4f4933bc5e4361575624f5d98cc0b05321c"),
    ("corpus", 30, True): (
        "b4f87968438bc2b11eb045d82c88859c8eec844ef657a461929f62e4e3600335",
        "d95ed91f32633ba91ca55ab780ce346800a12e84164d81a1a7b96234fc4da7b1"),
    ("corpus", 31, True): (
        "51ceb947e1d57066048e0c25c237fe09d1d75c7231aaedf22a61c83d245cf371",
        "cd261af3521f3a7c94292d042d7f518185ea39d750779dc7f50da58caa714ceb"),
    ("corpus", 32, True): (
        "7a61c2f9a67ebbe4c0dcda0dee3b48b7f739c87ab29638f846044a21860e780c",
        "7001d18f46cf168accacd61d7dedc64fc8bf89fcd20fb51b5a9b0cebb22aa5ba"),
    ("corpus", 33, True): (
        "92efb02c49de2450cef8383141e9620b1fec10c376ccd3a58af3e04851fb95d7",
        "4f6c62f357471996b0084066f8bc7dfd1eb76d04a92b6e44b397dd3890a3a12b"),
    ("corpus", 34, True): (
        "38c45e9d02a9163b72022680f5c586ed91682e8fa393dd4a2e4a137acccfcfb4",
        "2570e6298f898728b6b1ad3d4a5951cac2dc19ea8ab42f2bd88ffe6d550ff8b4"),
    ("corpus", 35, True): (
        "34aabb53979085aad620dd827c2ea56b18ea60fcd4f26bbb9ca2f1432d463ea9",
        "d1ba2d7b2d886bb287dc53dd7cd534fe2123436d7d42dc82324c0ccf051b15e2"),
    ("corpus", 36, True): (
        "73c1e38e5d54b42d0d7ca7225226e1f2a354ce5d5a755513b78af23c81131926",
        "880f8e22b4f24c8068bc65f967dd77bdaa8503d3e127995895a08d22dbeb6638"),
    ("corpus", 37, True): (
        "d0e8b8d82e20d26b66e2f59de39454ee07585daff9b706914c2036960b5ef0a3",
        "b1225ebd331688f12504b1738b61797868b4c170336ac05c995f9765ebbe104c"),
    ("corpus", 38, True): (
        "fe8cec6498662e0596e2ef0a069a804ccf9efd31c3dd05582b9a4ca9ee7ac3c6",
        "28bc493bb432bdc2cbabcfa2e0957db8a1b5aaae3a899f04e216795a892deb78"),
    ("corpus", 39, True): (
        "ff8cc3e428a2f6077748299b8142c4c93c76bbd482018c5ed44545b6f56793e4",
        "2c5c6d9ed2cb5c99ccf6c70d89d28134686d66ab48356a97722a762ac91a2d0e"),
    ("sparse", 0, False): (
        "ade83da0892bb413cab6333d15d6ea9383b0b5b142d73840be97c6b54a1383aa",
        "9fe94c7ad67fbe26dc190668ce2548ad0f69c6d26a47d846b0193bf405cd4c9f"),
    ("sparse", 1, False): (
        "85b44916b7b90cc91f625d0dc33645aafb1b6f6b27cc65f52a417e9d5aa81ee9",
        "92de2d01bd7d27ca9b152fc0d0df6d76c42dc73c35b883c5f06549b80ba17f5f"),
    ("sparse", 2, False): (
        "a6a2701507b95cd0ef5607c1e9943b43f9723ce588998f87bff8d824b1d4dc47",
        "5771a196fa3303589380ceffb03561bc284b2d1ef200e317980961beaa2a473e"),
    ("sparse", 3, False): (
        "840e6dfcd53b1cb00be5fceb07a816e12c05942c28c7e4faafa85493683f3484",
        "1a39dba9f16fcc65fb43994afa4d7f9ab079cfc1d6b5b2be1e8ae6508f90b7a5"),
    ("sparse", 4, False): (
        "bf76e68c0e615dee60896e6f392325b0ffdba282de436ec41e1bec134f3f0977",
        "73dda74762a72aeb77919f99d184b8755893e31ec73be8e1295bc0e7f4a54578"),
    ("sparse", 5, False): (
        "5e093c2469068e3c06b4a339203008b46c4ca8e3610fc425dc023909eda28701",
        "87e36873fcfe0a9474fa8af414d9441c5272dd337a2f405fac69f729e6c710d5"),
    ("sparse", 6, False): (
        "03b40a5f49d4189c05b22d31d5f9eef29f549530fec116aff32de18acbdb3e99",
        "bde1ab6f11ff5a31ed18a007a9b7c5f9aa6cb0820a35517b99a7e3534845c5a0"),
    ("sparse", 7, False): (
        "dea85724ecda2e2f3fa6d4d73104d6f2bb51d2927b2807b7ed875e445d56a221",
        "c8ce0688482b9986e88df74995e9a67d9be3b21a97ab1b942e5fff9ea59e4c4c"),
    ("sparse", 8, False): (
        "eaeb86a9858adb9a2b2f81d9cc39faa61750b8c4934b5948073b020f67ad8453",
        "b2bb4d9960a95a8da2f0c362ef360a96aee231bcccaa75cb160b7ce28d56c1c2"),
    ("sparse", 9, False): (
        "9c8c83fb399f09cc41813bf4bbe47ee2c63d6637296aa6281e262fd555a47370",
        "4d259a338382066ca18b6a621660d95b9715f513dc93b85417544570641e42fc"),
    ("sparse", 10, False): (
        "15126d695343103d42b81e4d3876e44be05d132fedd0995d9c4faa614ba8e5a1",
        "fe661df87d72d7784d9c2e4540a88e67cadab91bef3cba007988de8b9753fbd2"),
    ("sparse", 11, False): (
        "d4af2524be666bbbac614d2555a4e0f1a5d67daf0d8377bbe7553de2da4b7e4b",
        "441f739a9d804785118cc9c098a6d7b462d88eebbbf9a73f610936608539412f"),
    ("sparse", 12, False): (
        "39d7e9f0943419407a1b2a6002c20922b5ffb3893621c57500b6aa45fcd03f85",
        "2858e7cf8e832d6c3cece215b1d06fdc19efdf03ee74e3ed364356cc079bf114"),
    ("sparse", 13, False): (
        "96d7999e2f056d0e2553d0605f7ce96bf48412692cdf64a8089e16cb8add3194",
        "9e89ee44eca6b9b501495181ee6f4ce020115e26ccf9388489431d67993d3c09"),
    ("sparse", 14, False): (
        "2202fc7dd361a1bc8b6dee55d42b3919ba095da79e989b3c5ee3141d2c1fee09",
        "2ca482ac2866f87817550470882590e7201bac69acb852971032e5179c729030"),
    ("sparse", 15, False): (
        "65bf062f060b0ff4a42aa0020c94553e928ec653f5bba494989dcff443e1cc5d",
        "ead21fbe548f65cda9e034ecf8c0af97b37ecbec6de1e9f1e7d2e7e435ddf85a"),
    ("sparse", 16, False): (
        "59dc2fee1e308c295e037de351c65675930b0ff9e0294c944980e5acb588467f",
        "a34063ebc1e8bb95fba77ccfc04c17c468860bef52c5c2caa32f1b16ef38693b"),
    ("sparse", 17, False): (
        "964e92c57df44d51e670d6dbe832a75d3eff41a2706317e1322c84935029b4bb",
        "7414e706ae62b2c3f52a68bada301a5b26f1ecc069651c415c746a8b325c4ef2"),
    ("sparse", 18, False): (
        "ec989cea8320a96ecf20dbc767d87814d22818e1af11a1c568ccd737820c38dc",
        "b497970c1c75012b5924ac6ab506f241e5e0d3eb194dacd15cc315926db9dd08"),
    ("sparse", 19, False): (
        "c4a28c3bd6610ed8b1994318e42382f29d352a8c64cc3f83951367073fedc819",
        "a739160b330d854003c4f424c11273344040777bfd9f476e86f95dc00d0e1b33"),
    ("sparse", 0, True): (
        "e9189349c4012c30dba50afdcae3ca5d0af9f902aa5b817b434f4b8a52c23c83",
        "55919479e90c8a11840bb24017cd780587d4ae9d956d1a12f401b68b10710ad0"),
    ("sparse", 1, True): (
        "621e526138703ba7026d8bd47a4883e4e9e95d7304458d7fdbdeac89df4f9f3a",
        "3051c2bd43d7af3b825cf7349aac6438cfca1c1109400f3a7790bbc0d8d3d441"),
    ("sparse", 2, True): (
        "8b468cdef032d420f7af7e12c66779659107aaeb507b8d784fc98a1c36e6f82b",
        "7fd6b8c41d1da306be6ca78f99c8334321bcf54db9053bf6fbf135f8238776d1"),
    ("sparse", 3, True): (
        "62738b848b95cf346fc7cd33573d7b4b4007bbab50efe4c1e909e0dfb13a08fd",
        "9580af8b6cc324fe4de861762b2abfafa4ec23f689271346175c3bab3afd3626"),
    ("sparse", 4, True): (
        "357ff828dc9909157340b01bee405aa91b0a82233dae1984b7845a4440ad84a8",
        "fc26477b1894c65c697720f5623d0b4d44170087ba3a412841e22f9aa6a014bc"),
    ("sparse", 5, True): (
        "ef559206a425db8db816de663ab0f276c70158a493910334f30ef145076b7642",
        "b2d3873fff843b344703f4b061e78ed8986f3b8e592554578114b5f35c736baf"),
    ("sparse", 6, True): (
        "f99d7c650e8bb58010f3c4dbefdeece78828d8da8583727e4938c7a6955d8994",
        "c98e42791039affd79b1fefd02b6aa0cf4f9dc008432f12ea1d85d216da0f5d4"),
    ("sparse", 7, True): (
        "b6513f61bda818fa579d7b8541c4249d6915eb44e09e89046f9af93d026fea05",
        "f8c3a211282ce18fa2a39db13be20a026e9dd310e531e892058d4e4376dfb508"),
    ("sparse", 8, True): (
        "46abdbf732e19e35a748bd9c93cb53a7cef75ee80460f87148c11e0f2e21d675",
        "03492bf16db3cd337b6bce76787eb5594600fab5209d4eaabd20198c689e3af9"),
    ("sparse", 9, True): (
        "87b1ec7244664826b315a439f5ca6784b624ec96ba11359498de1ce3edb100a8",
        "ca8217d84cc33cc63c47a627d66e7293d0d79e6ae8aec161bdb72579ca794049"),
    ("sparse", 10, True): (
        "7067eb0010acced47d9d26a2548fafba23e3d5095fdfd1b80de3778c9e9fdccf",
        "db811f69ef6c8d556d166d695135ac71d2e44d2252a77237d9946c823171aab5"),
    ("sparse", 11, True): (
        "0c40fc389a793ff28f20164425e4c6847d2433b159780d94b6cf548bb5a5f22a",
        "2fd0b8af4a99072d29b02035826370067c7c3c5cf7d1a391e20a87da6a7c987b"),
    ("sparse", 12, True): (
        "2ea6153d55b53d1cf25560b792a0f5175b336bdbe49e6de9f16e138fd60b8ba9",
        "303cc6154d69dcdc976ce5ce9001ba0f33a668e5448ad7066fd732bac83a491f"),
    ("sparse", 13, True): (
        "116e16419ea7d4c43b85cd43c495991cfeae0cb39eb666243d8189b3bf0aa33f",
        "b8feeaf662ccad2f6676f166771a3e4952fe0b7b32a03bc78be00d2825efdb50"),
    ("sparse", 14, True): (
        "69c99464d9e5a3f2b5d0ab591a88e7ef5c13187e9fa9963fa3df1b01aed68ee9",
        "bdc82cb3f75ea9c222e9cf0f62f5feaa0bb6c12de5601c6a742e06458f7e34e6"),
    ("sparse", 15, True): (
        "6498434caf2aa6e3674753eb1af298044b2b38458b4213a3ab5e8665140abf27",
        "aa86156b5293f1543d4b0fd540934a5f64f5cc403c6b3f2ef3afba60a90fb7b4"),
    ("sparse", 16, True): (
        "42197f0fbb4d25b40fc5557d014ec4c246719e95910be28b26ea2b98c5a9751e",
        "003d8eeacfb6a9e56f1db8c8178e9cf3d2df8dd687091ef7ddea60de0964f0dd"),
    ("sparse", 17, True): (
        "80638d7651a7f9024b07c39b36263b01e8d861ba941a6d8148399d5f2654fdee",
        "5fb8e954f7424f65608ba34820fab48cca01cea8019ddce6af259bcc8711acb9"),
    ("sparse", 18, True): (
        "900ee43b567d6302995bbd5a780ae53b48db413454048b2824c71336fdfc4496",
        "35181c00037eabeb1abca618e738dd555cb8d525a14058f1f165195762126870"),
    ("sparse", 19, True): (
        "8e86e5c4e93ca7ae6df0f71bfaefa5514f6257a056463b74e9ee15a359718eff",
        "750f054b68e096501d0282cd715fed856d3c3bd67e3562f5dfbccf43a463b7e5"),
    ("quintic", 0, False): (
        "c0d57b6c0a58442008ea790a907ebb34d8f821a2c393c905d80f440510ac51b4",
        "0c26dc9ca88f5f87de1528889ca575c475e342c37a82382c648599220f3dc3f4"),
    ("quintic", 0, True): (
        "20d5cd6e165b887ffec1aa4dcb0f31fd2287e716166b81e22d223cfc87f3aed3",
        "632a7ada489cdf7c58376363a1c326651fe76862ac23493c41771ecce6024c5f"),
    ('corpus-mp2', 10, False): (
        "ab6aacc201306e1cad696be61362980ed8d922b5e7ec39c9b61413aec66c6667",
        "0e7f2b1d0ed70202dcc489a1b19d01326536e458ff80d7aa06298dab1c0947ec"),
    ('corpus-mp2', 11, False): (
        "4e1794eea08fdb43ac87aed3c981a03f422ef2e52d09ab3afbd22767146902d2",
        "983926b9229f77000c268bc469400269c314eca96cc90b25ac44ba771aab9313"),
    ('corpus-mp2', 12, False): (
        "e75b3a45c0e8e5372ab8e53b212f73229d8dbe292a371b77e49c2194d3a7c6ff",
        "ae50598df73a2d4be792081ef029a7e7df32a313b71924061c3bc8f7d726d1fb"),
    ('corpus-mp2', 13, False): (
        "66df889dcd1fd5e33426e879233ddb5cde02b2ce045a6f4c7133daf8ef57de7d",
        "2b777fcaa3272957c8f5d670ab8ed63e8d29479e86dff2f3f14d9fd5f7675dd9"),
    ('corpus-mp2', 14, False): (
        "37c2d76d03ef4ff3796157782dc19beef841d80e11168e75b52dfce699a1d50d",
        "40670ab9b24ae7a27b3d30486f3301eb9f2a94040fdbcf01855fb33378ab2978"),
    ('corpus-mp2', 15, False): (
        "5caaf8345b37b8b402ca93582d66633667b1193f1cd2a67000c949c3ce07cbe8",
        "abe7a09ffc31b5d9780ca53defa4847602f92f9982367c66dd9e873607f46ad5"),
    ('corpus-mp2', 16, False): (
        "78f83dc33cf3a308d824cbdad4b5a984e3e70c193e9c4db789ac637e2aeb590a",
        "c6218fbf945b6f6b29f582d66ed72202c727ebfce316bd71e8fbd73c54a27772"),
    ('corpus-mp2', 17, False): (
        "9e8570e76144b411a08b5e9013e6de84bc0ac7e6f28caa47aa9798207b270b50",
        "39fafd106748634831abaac70abee00f3942fe44fe452583f77ae9281119972a"),
    ('corpus-mp2', 18, False): (
        "36f9ea6068a5c35f4cd27d90da84545262d67dfd8094e06fa4ef817f45bc1abb",
        "20663222bf67030bdb2859f8ba935028367b7af7c164de141295cbb0cbcaccff"),
    ('corpus-mp2', 19, False): (
        "b1f4f075ab05ff46c6998a0e4728e343c8c74c9acbb6dd1b0aadcda675c1e3a0",
        "a1e81bc77213b6e9ba43c538bfa7317e16103544cb62bd16337bad28ff69348a"),
    ('corpus-mp2', 20, False): (
        "efadc6c7ae2bab5b2d9f53ed5666207c301c0e84b6369f9c99e3e3a0bef9fa2d",
        "ec7704ac70e6d1abee082b16063f000eab21caf776d65553b3861fc435731e54"),
    ('corpus-mp2', 21, False): (
        "fdb345d761bc0261c811a29118d82bf1427330fb62f803980dde2417a340b5f5",
        "fd5ab9890b0b422b8c38c65526a905e4fe6ba12078592c364daebf5f3b438895"),
    ('corpus-mp2', 22, False): (
        "d92300c5168b4308e3a3a697f9e5dbd79574e82026edd641a74d55d3dd1b156b",
        "c137aaa0af279762e7f47998821888b7a1dd7195b11a2a38b66186f2a2cd83ef"),
    ('corpus-mp2', 24, False): (
        "fd3800fd608e7797ac79f447e597a53c431ec2a35f2d355a4fae8ae51d0a7862",
        "d1b082682664ebe129d07972929990869dd7d445d634749bd5294beaf05a984e"),
    ('corpus-mp2', 25, False): (
        "65f44147587ce952e75b7170537b40a3b7c5202d11a43434003b4213ebcfe9f8",
        "92417d235d2f71ccc7028ff49ae094867143b34251f168b87f17a81179963103"),
    ('corpus-mp2', 26, False): (
        "43abb4554e83c65059a521bb2c1b4d7c7338ca63a10c9c5fb4bde63a2d1b2ac1",
        "4b88f3508afef04ef89a0fffe588ef7a69ab4ee2aa36de108a2088c650d4b15b"),
    ('corpus-mp2', 27, False): (
        "f7c548442dc2737d30bf5e94740d50babc092574b3853bf283535ea5893263f4",
        "7feadc0a47f1cf91860e997eeb2087659d01d0627a63108554a58651760c7cde"),
    ('corpus-mp2', 28, False): (
        "e19f8e6140fb9ed39890e66da051f78120beb62a3f39a57fe58cfd8862693ddf",
        "dce1474d806bd918cdff3fc95f85aabe110b86655025cf9b0e632386e694e0fe"),
    ('corpus-mp2', 29, False): (
        "e6693587d6efb559bda3e94cf6a6140cfc9fcb8795e9698c389c11da0535d598",
        "708af2b85a990efd2990578986fe004051525938067af624181329bac3f078ca"),
    ('corpus-mp2', 30, False): (
        "2f91c8ccc010b40dd4f0152e340054b8dac6bebd979248bad16843cef847329b",
        "2fc324b00f363e17c2574df0d107414ed2b131d3677dbad3321b2323a3d0ef9b"),
    ('corpus-mp2', 31, False): (
        "595328115dc1893a44451377620412d35622e35ca55d596621cfbef04845860b",
        "923f8f7d3639096caff16ee0ec54dce3fad95c79d22dd08a285cb835a4a8dc1a"),
    ('corpus-mp2', 32, False): (
        "15a31351614dd368df304e92662e2280c5ad17fa26a4684afeae26ee6444c2c8",
        "f6c42fe8df00d2cb49e79af83b005d3d96cb8e6c7d09196639ed880a5bc573da"),
    ('corpus-mp2', 33, False): (
        "f1a49a17f3e6be0232add76c3775276fc07ece146dad2bb7e7fa024c7b03e22c",
        "3cd5cea33a3db8d006404fab80c99f377756691c2b7e225db1a6df67a850dc00"),
    ('corpus-mp2', 34, False): (
        "0d6ba74a5ea96385c19d67288143ffa52c0a090ed695fdd18719fcb5d4b7f72f",
        "31334df62cc97d02f576ea9c26a4f920c78bdfea3a735537c1a38b7d55f7b4d3"),
    ('corpus-mp2', 35, False): (
        "9cdb1bff1bef6d790e4b56fc7bcac7995328b2af222c271de62982f271552623",
        "a8e80b79cf5534287c2e96443160920073e781fbab10ee98067af91671699f52"),
    ('corpus-mp2', 36, False): (
        "681b7371e9718f7e2038d7acd3f7f04e0379318f18b58d730fbde0a89bb00093",
        "558198253a9d3951b94f50ee482ffd6170e174c937fed48fd970ba07e8f9b0f7"),
    ('corpus-mp2', 37, False): (
        "4dd3ac6eeaeb3e8d0489a75b138075d998b2ddf50f9dcf0374a17965922e6743",
        "7fd7062a2d06a7c6c66b91ddfb41b5784447e6ae2405508c1db048a3b2c068dc"),
    ('corpus-mp2', 38, False): (
        "abfd03a23e23baa9525766ce6fa12527a89e6c6b96ed0d34899ff94b9ae68107",
        "b3da074bee15986ecfe78e220179abfbdce8de2f5f6b13dec5be9d3ea2c49b18"),
    ('corpus-mp2', 39, False): (
        "0b5efe3697df21973a74beb0d2eabcab584d68da8b1ba945e3c86db05b00253f",
        "218594c2505a7253d83a37296283c04db6cfa9d840d134631839a13eb0145f85"),
    ('corpus-mp2', 10, True): (
        "cf47aa4ca4f5a542f9c375a976b7abbe417a7b1fa1e596299ab2773a7895dd3d",
        "743f8615c0995cf23d400247a8c7a3d0a85f6e22eb03c8b4e61179d3baae70fc"),
    ('corpus-mp2', 11, True): (
        "b73745f16e5bdaa09d4ee73649ed19e277b17e0b29af790119a583554388340f",
        "c7d42250512a670724e866e617bf0ad279328eb8a51a497d52423307b06f3ae0"),
    ('corpus-mp2', 12, True): (
        "ee8881b96b8feede54ba66dcac80bb937047323bc8e06e83c347cd42e79068b9",
        "016ecf757121383907b4ac1a0302bc93c925f416875a495b41fce8acb00aad64"),
    ('corpus-mp2', 13, True): (
        "98946a2e417f2647586ed2001af6f0298c19e241a65419e25cc6fe67c8d889c6",
        "9ebca3d59092771767f0dbe0f4bf354c262e07d66ff57feef57a95343baff870"),
    ('corpus-mp2', 14, True): (
        "d6ed373c8f92568f5b155672b636d1568a922739461f0d333a6563ec21c897fc",
        "0ac66da2cafb8ff8c203e3c23149a3ef683bad08b4f8e212969cd986309c1264"),
    ('corpus-mp2', 15, True): (
        "ebb21763e14a5bd67cb07137213a41f2d0849ec3ba283c51e5e62fb587f3bdfc",
        "006dfd880ef75d1579540a73b2fb53356f90e4268edaf4f2d070456bcadb6d73"),
    ('corpus-mp2', 16, True): (
        "a16aef45daed55d75b8042ce5e045b8be6e7b726ea2e3cbc56e9374c337a9c6e",
        "d1d24fc74340c03426c60623ff786711c97bbec2e173b232f23b405d4ed46c2b"),
    ('corpus-mp2', 17, True): (
        "fbf3f7b76b563823b7e7d5915dceec00716c18f776254a6d4d77c5dee59748c4",
        "3f3f8f2a33867f30e05e7b25fb79952fcb8f63e9bda3d0aa479fefefb6a93953"),
    ('corpus-mp2', 18, True): (
        "7fd4101bcf34fe8dce8c2d65e1e1b693234b614d0f71010641c610ed9590159e",
        "80b5a833227a3825ff83a03d70142cf58a22469fa2ba08eea9e394a83ffab6d0"),
    ('corpus-mp2', 19, True): (
        "2a2cfdb0a85576c048da66fb4414d30da0e2d53ece93a277fed4f494b7552c30",
        "58534efe5705c6a761e905749bced718a43553a1c83d820b1783b0bacb21e781"),
    ('corpus-mp2', 20, True): (
        "5389e8a73d047340822af7695321ed51999ec46ca74ddbe446c86dcacbefd525",
        "4e413b7c36be540864e53119c19fcc27d43be8aea5ada60cfda3280a1a76c693"),
    ('corpus-mp2', 21, True): (
        "fdffdfd9d0557c19d712f997ae1c66c0fd2190879132fcf02deab1c9c94bac94",
        "6676dc60363588f38cbda5c9d5bcd61fde954181bd41d9c0f367154cda40b457"),
    ('corpus-mp2', 22, True): (
        "53a5a6e0f20e58390728dfdf8622e8a9d963cd42f1856a57ab2237a7d6dda937",
        "dce29b817e878cdb9e004ccfe73be532c5354b8534afd25cd970da242f4c5f20"),
    ('corpus-mp2', 24, True): (
        "036e9c8336b0a402aaaa5548f9317070b3fa49e97c1f309dbc893a0eed40ae11",
        "2da650bb434a68f8ab028fc4feb68ca4828fa3988a52d25fbdccd1f71b67b6eb"),
    ('corpus-mp2', 25, True): (
        "9d5e654f6897af4ad17e7d8d233c604cb31de06282cf0efcd6f7ad385b7625c5",
        "2abcc6ebca39d7bf150c4456eccff3364adac4240d9123c88e56070eea558568"),
    ('corpus-mp2', 26, True): (
        "cebbfadc1513a2bbfe942512fd3db0e546d53732ffee35c87978bd8811a23304",
        "d2128892a40b5a10205fa6fadbe19f9a8e6500db443a316ebe9d6043dc99d1f6"),
    ('corpus-mp2', 27, True): (
        "909db4edc3fbd5b62f847699bdea8ace2ffacae12b60ed2483262e6776573ac7",
        "90134f6232a6fd0ce1dc9052800d298d607dc57235c78c3631e3b429bb699a90"),
    ('corpus-mp2', 28, True): (
        "dde1d07038025557ea5522655a60a262a08ca908fa7f164b28d7010c81a8b30a",
        "67a2f3df1bd661a7b33a6ff48ff2ffcee694d7f519e4b8847cae976ddb975019"),
    ('corpus-mp2', 29, True): (
        "497982a9d78ece71683b87d7f62538cb20a4cda36cc3caa765d69b7d46f9b69d",
        "5a360cd0228b081830d3f9fd82a70f5138c86eea147938935a8291d6f92db20b"),
    ('corpus-mp2', 30, True): (
        "de05730d8a264262e06d932590aa7ee38ae3b35aede55884b126a4063be65ce9",
        "5de9d515a5e429ea292066ab47700a2ee3889689c54503c949bcf2392d463202"),
    ('corpus-mp2', 31, True): (
        "4e7dfc12eed1a815d0e743800f012322976f95260937b6339a509fce375af67b",
        "a2add6249c9eba987841a4703fe7670f0b0e3f544fa2227a7f53636ff71bcaa5"),
    ('corpus-mp2', 32, True): (
        "db537c2d516733b0e8b12ac28ef4463da22ca6477289d5ef129f5854282d249f",
        "f2e9567db33f39eed3a7e822b693d672ad7277ff3ec19d89882fdf20f8413839"),
    ('corpus-mp2', 33, True): (
        "ee2c3cc0429c6c12c443bd525ca2a818be9f5b0c0d1f789265f35d1d5574fcb3",
        "b02b6ab2d5f9b6db403f82bf3ab3ef73cc61ed954d166eb10f5cd223df5432d8"),
    ('corpus-mp2', 34, True): (
        "6bb34a70348e803a9b8d79e49af7a5d4144ea2a1e129ace48b710aef7e69306d",
        "15545a81ab8a95fdbabf4195163b2d831aa6e93dc4c5ca5257bfd0004a3670cc"),
    ('corpus-mp2', 35, True): (
        "9efbee98109597cf07eab368da4acbd99f465995051bdc5c787c2d0c0e225e39",
        "40d851b0074522363afda599cae0a260937c383c1cce40d668f9d6d720380abd"),
    ('corpus-mp2', 36, True): (
        "5506e59538d8270905042a773b740e71e1dae73e9c344e38c1fef6ead535a1d2",
        "1a9278128adf90018c25df78f039665981338bff6a3d4d9f597b0a38dc99f129"),
    ('corpus-mp2', 37, True): (
        "132f9d088d26c23281dff419cecaaddeba030d00d99970780d741446b1d81f46",
        "af13cc084c71855c9ec6bd688fd761c407ed1a79cddaffa8a113b41c3506e838"),
    ('corpus-mp2', 38, True): (
        "2db2aeae3fa636fa9df23b59e243be01376a3bb1d57b8f56e626267e143b825d",
        "4957aef65ff061ff45b8b0cf66b58950709695464a651a70c7688daa1638a07b"),
    ('corpus-mp2', 39, True): (
        "332413017c76622a1d313ba576409efa19324b452e3ac5d8dc486a9500765578",
        "fe5456937829efa29ff8515698afda02c117aec66d3fb49e72c02e7ffb709d94"),
    ('worked-mp2', 0, False): (
        "ee5c8839ea6e10a294c3cd308c29c4d26c04317fc43ed659febaa5a2e205a089",
        "2a6d42ca1a86e28f9c27334e2ccdb84d751e4ff11745ce6e90324824880a9e79"),
    ('worked-mp2', 1, False): (
        "fb098e5dda74b2f69e90de747c0aba07f13bce426e5d88ed639a104b1a25cdf8",
        "b5c927c06f810e229e963bf4b54de88bf2e15979b395ed467a9c97fe852007cc"),
    ('worked-mp2', 2, False): (
        "cd24f76181d8169deade242c8de55db356e9d5640ab8473fd98852dd60b38ab4",
        "4e1ca2540976f2402e6519fdf47c9119e49252d2eb5fed9f46527067f204af71"),
    ('worked-mp2', 0, True): (
        "62a2852ec540520a8fb31ddb724af2d4995d9ae527f00dd173a0786dfd17ba92",
        "ec288fe57285107830450a8f5fe7e262a927063151d791d1299d2de6e5c2d973"),
    ('worked-mp2', 1, True): (
        "ea5ae17a6f187350cf8cfcacb69ae3ea3076b827cba13b902af07e75ffc9ca26",
        "c7ee4200901a25129629c11b4c24fbf89290450aa4e9ce41abb38c61d34d9839"),
    ('worked-mp2', 2, True): (
        "a3f3bae73c9b4c893d5bdecd9b23914caed80869fa27cbdebfcd7668a219c991",
        "cfe54fc0230000c627612c9852b9865f62f0885a73469298807667566158f2bd"),
    ('named', 0, False): (
        "d359903b2f17b9b4d5c7f4780fd38c8974f1cbb75eeac02f6616c1976e1b5de2",
        "bb5b646fd7431e0676f83161b6dcb47a0af42f4bdf813ba72e04c12f03eb85dc"),
    ('named', 1, False): (
        "ba695487011cb094180b3399f1648fb0d67a04c814afac33806df9d92c7b27ef",
        "e41deb62a9d3fb8a21f088d9ef6eb6d0941663da3fc27ba4aa8f5bc4cdfc2eb9"),
    ('named', 2, False): (
        "39efb5848a1805c84fe7e89d81f9ca85de6c26cfa84e7457e040edfe84d795ed",
        "060413c318c3ecb715744b899d411f60c7bce5785625ea9b05c20867c84196ae"),
    ('named', 3, False): (
        "ae059f95559e51fa13bc15cc9b9ceb1d0e18c643999a87890ac367f22e626c93",
        "676af30f87f4eee48415fc398579399a024209d52e38e7191caf6e9a1d0fbb7d"),
    ('named', 0, True): (
        "caa9614edbd54b3141ee4f0ca0029e403b571b0aa9f212fe759f4bfa708bf987",
        "4b50622e0b910750087b1de4d0b5136f47cc74d58ff3f0bbac42b51440b918b2"),
    ('named', 1, True): (
        "14b0f295008834e33f55bc5587f8cbf253256febb6e046a6e51bc647fb35f541",
        "53168db184c46df2ce47a90b46df6bd6bf7a6e46721fcdd51b5cea6aeb743a38"),
    ('named', 2, True): (
        "17a73e2734290f2433adbd5a0ffddad866b02f473cc13cf768dd8ffa6921f7ec",
        "0222a4a49619f87f62b759414efa699d414ba5913a04ef4dee173849153c77a1"),
    ('named', 3, True): (
        "3ba6e418103a0a9b89604b79338a5637bd448a56092eeea0598582997858117e",
        "29661947420c127bd03825e54b74fdb39144860c188826ad469c9ecd1051e473"),
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
