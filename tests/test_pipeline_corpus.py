"""The whole pipeline on the maps a user would try next, under a time bound.

run_analysis runs at the default config on the first 40 maps of the
acceptance stream (seed 20240811), on the first 20 maps of the sparse
stream (seed 7) and on named maps, each also as its decimal twin.  Each map
must give a schema-valid report within 4 s, and only a coded RatmapError
may escape.  The sha256 digests of each report's to_json_bytes() and
to_text() are pinned, so a change of any report byte at the default config
fails here.
"""

from __future__ import annotations

import hashlib
import random
import signal

import pytest

from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map, run_analysis
from ratmap.restricted import PREIMAGE_DEPTH_DEFAULT, _verify_critical_invariance
from ratmap.sphere import INFINITY

from .test_report import _corpus_map, _decimal_twin, _floating_twin

CORPUS_SIZE = 40
SPARSE_SIZE = 20
SPARSE_SEED = 7
BOUND_S = 4.0
# (z^5 - 2z^2 + 1)/(-3z^3): the backward tree that verifies {inf} holds 3125
# distinct points at depth 6, so a frontier dedup quadratic in the level size
# takes about a minute
SPARSE_QUINTIC = {"numerator": ["1", "0", "0", "-2", "0", "1"],
                  "denominator": ["-3", "0", "0", "0"]}


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
}


class BoundExceeded(BaseException):
    """The per-map bound passed; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise BoundExceeded()


@pytest.fixture
def bounded():
    previous = signal.signal(signal.SIGALRM, _on_alarm)

    def run(r):
        # re-fires every 50 ms in case a handler inside the program swallows it
        signal.setitimer(signal.ITIMER_REAL, BOUND_S, 0.05)
        try:
            return run_analysis(r)
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


def _check_report(bounded, r, key):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    try:
        report = bounded(r)
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
    _check_report(bounded, _corpus_map(index, twin), ("corpus", index, twin))


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
