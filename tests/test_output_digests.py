"""Byte identity of the rendered outputs, pinned by sha256.

The digests are of `eymsym report <case> --format json`, of the markdown
`eymsym report <case>`, and of `eymsym tables` (markdown and JSON), all with
the default holonomy metric; and, through cli.main, of `eymsym solve <case>`,
of `eymsym report <case> --format json --g-holonomy 5=3,6=4` and of
`eymsym validate`.  A change that alters any output byte fails here; if the
change is meant, record the new digests together with the reason in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

from eymsym.cli import main
from eymsym.report import (json_dumps, report_markdown, report_to_dict,
                           tables_data, tables_markdown)

# case id -> (sha256 of the JSON report, sha256 of the markdown report)
REPORT_DIGESTS = {
    "1.1^1(7)": (
        "134d212f41e93cfe64e2cfab6c89577fb1c402040555a97c3c2e42150402abf1",
        "085d4fdb9f69b00c721007e4a7faa12d97244e604688c2468da9d7e9166619b3"),
    "1.1^1(10)(t=0)": (
        "9efa88261e92a6a6c5a14430c4836d01e52e2d325c2ff2a50ffa64d862019177",
        "fc7747f9cc03ee0b90e3cfe6540733aeb68aadd2d77c1e880b9be80119d6f5ea"),
    "1.1^2(9)": (
        "fcb5582b4033af7a2cd0427669169647e515425d0c03caf50a01d7e274f73642",
        "3e946964a4f0a0f81847be60a287e4ade362ffc68583ca1a92cc0d9709fdcfe0"),
    "1.1^2(10)": (
        "940a7535d1fd6de98244931e5e2ac6748703cb80f0605541a81cb39423c69db9",
        "1299957f6a5f0dfd4e1e2e26eea9a5a7cf9a67943c72f6c8df5ce62a94381d6a"),
    "1.1^2(12)(t=0)": (
        "ef4176bcb6d8321408e930281718609e690ce6b2fd781d2bb53d7c873b58d406",
        "73c295d4abf42124ab621f69005a4222caaf05c21a4f091399c0534d189fe836"),
    "1.1^3(1)": (
        "7aa214fc654fecb85862ae8a68cc2301242658195a6f7d4ceabbdf64f0281d96",
        "82093f866dd2cbf723eb55d2fd3d560d7a5947384f214da7d6fc2b8f2d82a734"),
    "1.1^4(1)": (
        "f89609f2a850cbd8ff763b08e040e65a377a52d2468939367cbdd1b2886a620d",
        "dd16418d0de3ab6901337f5fb27e937dde17957723ed1f7976a8734ed8428707"),
    "1.4^1(24)": (
        "bb7f498a4f1cdb85e30c7d56724f5eec5066e8a7b803b5d60df581b0d9a0dac8",
        "d82b8ab224a402532e4705f455745a19249a2e7bf25b15650a6272030b42e610"),
    "1.4^1(25)": (
        "b487bc657659079ae092c687a64c49c9e36e02cfdfcca77ef6b6ccf980df3866",
        "495cf8021af801f1c867b153415f6b97153f56291fabf85f7c8ea2df102dcc9e"),
    "1.4^1(26)": (
        "7e4deff593956785cad9bad064d78de99defbb6f34ac21d4a5c69880ac04243b",
        "db9d84f2191d8bce3a2e48029c093269e86730b097514b518489b5238cb66ba6"),
    "2.1^2(1)": (
        "8d1296db53e2a77d7b21b061feafdb5e36fc62f1c3f6a5f6e8fdde7d4573c771",
        "f191a7c6e6f888f1a44dfa0b0ccbb3354b747dafce4b9d74a55d110b22f0a32d"),
    "2.1^2(2)": (
        "e1645ad742ad1acd1f9ccd71356ac92d35d5c5190b15eae66b0c5ced4c72ae8e",
        "a2a9fc3c18f6d71701cc83be235b85805a73c01306f3ee681049d264d67b7b91"),
    "2.1^2(3)": (
        "56fd7b10935ec538a40a221ead34663e64cc1d38b6c83dc5ec06f2bb619b6855",
        "c8375cb5d85686dbf0272af7139506f5ad91048822e2114f3a5dc3a40887343f"),
    "2.1^2(4)": (
        "3c90bc48d8801ace09ef9af5b6f5af31c84cda00d6c46ae1917fe80310efcdc8",
        "57cb907a855da0feae06b18e820cb7813cf10bbb925a5ecced6999c993d36ad6"),
    "2.1^2(5)": (
        "1f46f75b5725a6264a6be3cb892a75b9498bfd7831f9f22ef82ab85b37505c0d",
        "2feb4423932d227ed491ee508ff928b07834e748d44ba8494248e973222f08f6"),
    "2.1^2(6)": (
        "feb085410dda6789ca9fc8522132695bf4d5990e3c1563331b842bbed22fc216",
        "4a9fccef27879f22a1fdfaba3e89bd5deb6bc99cd0f33ba545b7c82f6bac9b71"),
    "2.4^1(3)": (
        "f99e19ef93dfc5a1e93ca9d79b763e6167870318625e88b1b05ee772022f1b14",
        "03b14cfb51fd73c4c3c2f0f19e8d8575f1bc89125f426ffa10152b3ac5c7f302"),
    "2.5^2(4)": (
        "50f9b78000c998ae42a5e20e36eaf354fdcab565d21ce8a3a6cccb2bf8608d70",
        "4ca3b938a35d5aa48cdc4a81339dcdbdcb7df47a50396564bca69e9273b4512d"),
    "2.5^2(5)": (
        "b3e1faf8e486081630d744e808a8dcd30cdedb9a0ba7843ec27b88b627d80ff9",
        "538600178990d7fd393d021bfb84085bbb68632fcdfd410f6f61ef704ca04681"),
    "2.5^2(6)": (
        "b02e1c53d5f680dd29031a9662e56bf96a6faefaa732c63c688dd32f849a8d71",
        "f4df235c1906ce2e784deaff076c873cd01d8ac0b7e7ade4bad7d95fa82cd0b9"),
    "2.5^2(7)": (
        "87b68cdb79ee5285742c575951d43561cba98d51e8cbb13461da3265f37b0b3c",
        "8c62f9ee8df22d1d166301d290900eb76b60d33d22fb9fdeb857f4686b7b5e63"),
    "3.2^2(2)": (
        "31d75405fea8607e177fca88df96ddec19ff1d991ca7fe3efd6f6ad179561d92",
        "46bfdcad263979700be980c3bcfab2195bd9a43dd412ebf10399ac65acb15f4c"),
    "3.3^2(2)": (
        "b4f2d43e5eff4e9fd2bf2971219f035ddc6faf4ef56367ca46303dba78ef06f7",
        "8c58d0b39a9bfd010eec07d9e3bfc5591bd539db03a11b5c851d9027dde450dc"),
    "3.3^2(3)": (
        "876314ef273ef04d933b576112bf01773c6e7572c7e33e5063cac49165192df4",
        "c5ac40266205b91383b3c539df7d5cf3c0f10ad31656a140299a4c602841c72f"),
    "3.3^2(4)": (
        "1f36132689b73547893d472cf2da6b86e5e771de9b1f97922765b5e44fed6eaa",
        "d2fdde3c66ef30bca76249c2b6872342c048e2b080289bd77ddeea613b5c8094"),
    "3.5^1(2)": (
        "c6be5899733eeb8443997925c0d1125cc34e486096e660bbcd95eba98793b370",
        "9e1b8ef77104c8c80f5264e4ba129a456268b905a874aba0b2c3e55735c3dd4f"),
    "3.5^1(3)": (
        "12fde36487a5c0110a03849a1589364d94635c914810894c01ae29136456a23c",
        "1778188816a40e9cd369c0a550e21cb603ea10e998d81bd2e14843e0c943f721"),
    "3.5^1(4)": (
        "1b8108d0ede5ae63721cb5f38e322b76545c4e27a428ff0ca96cee066fb607ef",
        "6ee2a55d36e8c839df36f54cd8ebb8cbb9dfa05dc76dec38e3dee121cea8a6ee"),
    "3.5^2(2)": (
        "0cd1a780323a9a922554ce32f4e8ad1e609be9e9a57998e46b65401dce36133b",
        "77c07f403346d3ed5c762f897cdc8d99c174cc492f197f1bac845ae850f6665e"),
    "3.5^2(3)": (
        "3fb860fab0202472009c59179bc3245962e80915462f2e7af37858bb33159f07",
        "eae8378e5724828fa45a335978d0ca21fcd41eab905fc5df921307c8bfe1f969"),
    "3.5^2(4)": (
        "f5c501edb28a8e31b997232ea338570667a3e49c1b453a9b5fae3cc008617976",
        "13c83135c21afbb9f82f5bc6abb4f76551ee5504947ee90e288fe340b00f9f5f"),
    "4.1^2(1)": (
        "53b5b251e9a1fa187710d622710e0e802b65407661c6bb4cd581c0e8304e2ecf",
        "40b6ad700e8ce1ec8b13c73e94de4a4e83c0bc95b9ea76a4b5163664ca1a4443"),
    "6.1^3(1)": (
        "e476b579680982aecf2f2abdc5a3c3fa6c6191ca954662293b81ed836016a2ed",
        "1392e99a2d459a0ab5068f345e0d2d13c56e6c68f7739a81232a025b64966a59"),
    "6.1^3(2)": (
        "89fa182618b6d0c87a78f0466d6f47777f0bcd281c32511a0863921d3c4314ac",
        "3f386eeecd96596283ad72b301e973e3ba103fcb78d17f5c2378c20d1e9ce866"),
    "6.1^3(3)": (
        "788ebd0987cce8fff890e9fc2366be728d4b9520a5bc4496c0576a75acffc700",
        "cdde3ef4af7c3e74c313b2cd44e91d22467d527856f33e9efca50b10e5ee95fc"),
}
TABLES_MARKDOWN_DIGEST = "fac1a99c3630d514c93e24d7261e58d2017ac699ebaa0f29c23847c375172465"
TABLES_JSON_DIGEST = "0c1383c8219fcf643aa843f6342022a42d0fb38f1e0cc439abf5771f933f6c7e"

# case id -> (sha256 of `solve <case>` stdout, sha256 of
# `report <case> --format json --g-holonomy 5=3,6=4` stdout)
CLI_DIGESTS = {
    "1.1^1(7)": (
        "f05c63c5055d909c37ab0c38a171d8eba86a6b08e3b068aadb4c67dd0f6ac802",
        "b623c781ae668f0eafbbec6532c84f8fcea51fa4527db07971b9a17af08133b1"),
    "1.1^1(10)(t=0)": (
        "eb2cf77e4564d03c10b4f50b040b007b2c08e3db6dfeeaad8de47ecc1e4aecd7",
        "9efa88261e92a6a6c5a14430c4836d01e52e2d325c2ff2a50ffa64d862019177"),
    "1.1^2(9)": (
        "00bfe0940e0825c3bd12e9c957d3eebeb80cc14cab28456edccb171d3ccf62b8",
        "247d7fffed10c268905c2690605d97d5feed07132d872b3f2a18b72b02936eb4"),
    "1.1^2(10)": (
        "45be4cfa1d088f05b81856b284df88a82ba213ab0ef0a9f707dee6c0bf6a6c77",
        "0d90423aae2ecb588f2751698e85248ae1a8c060770d209fda1c1e8456fc5e79"),
    "1.1^2(12)(t=0)": (
        "495df0cd7a545e4c6509d5921ac5cd355e64e0f96c9ac03e5b3a4c6beae27589",
        "ef4176bcb6d8321408e930281718609e690ce6b2fd781d2bb53d7c873b58d406"),
    "1.1^3(1)": (
        "0a71923ba357d5dc2fd22e09e59216562fcd27690039a2e6b77c4fd71e11b9c1",
        "7aa214fc654fecb85862ae8a68cc2301242658195a6f7d4ceabbdf64f0281d96"),
    "1.1^4(1)": (
        "fe391f5e1ae0eaef994ad1e71001083f6e7f6501fbfa3f046a5ff591545112e9",
        "f89609f2a850cbd8ff763b08e040e65a377a52d2468939367cbdd1b2886a620d"),
    "1.4^1(24)": (
        "80e7bdf8a4d9face3f031428132c463e041c5976f84a149c4b3e4390fb96a923",
        "3c58a9e771eac4bfc3fa36f8d5f4d5bc16ba79f87e0f56eb6bf5ffab4ace6c55"),
    "1.4^1(25)": (
        "acbbf77937e59c196824796bf417bea95e5652fae28169d9e81e789229d3659d",
        "7c4a5503cd5e05a7a18e2a51f12de367502cba17ef37186a51fa0a0f0a9890ee"),
    "1.4^1(26)": (
        "9b2059373c7b8027fc3af65fd5fb11aebddbfe3965ac1806fc26fac4c91b57f3",
        "7e4deff593956785cad9bad064d78de99defbb6f34ac21d4a5c69880ac04243b"),
    "2.1^2(1)": (
        "6ca8fb239a77e7c5a8e09f2f43d3d20b00d090db159c8241245621a2ccd079c8",
        "59b6f03b52bc20f61b13a0991d169e0792efc8bb7bd5b2fb25adce2e9669a8a0"),
    "2.1^2(2)": (
        "33a39138c095700812bb0c2433f7038f8e3c320fa3ddde1db315b6d16ca95517",
        "f978be48c82f409c5ae6894b6c9a741af067085a2f52896a8c025b5eea253ccc"),
    "2.1^2(3)": (
        "0af1d7fe47a5bd33714c2a34280c3cca843b396836cbae1c72c43ac27b263e5c",
        "c3fa6f3c0d466f125d71a0d7936eed0a086361791fbc42b7471e5e38dc6a9401"),
    "2.1^2(4)": (
        "eefcc2566f628bb0831c5746c217909a8bb59fc5f6fa5fe01263351c6a96e794",
        "1c6b790b94dc973d1bf3fe6319c0a1c759a1794effc45c9865b1e03bb40e4721"),
    "2.1^2(5)": (
        "67805580b02180145b22f64b2684997f4f6ab40b87939d6d25697063f65d2db0",
        "62e4d816e77442e0a5e584e3ed2fb560e0c7adc639fa429090e7820bebfdd5fb"),
    "2.1^2(6)": (
        "ab7316ab28d978bef779f16e92a62cfca616d2a772a3fd841a06c0c86731b723",
        "feb085410dda6789ca9fc8522132695bf4d5990e3c1563331b842bbed22fc216"),
    "2.4^1(3)": (
        "2214680d359d891428a3abd56f91b212b44229beb3fda479450488660ff48599",
        "f99e19ef93dfc5a1e93ca9d79b763e6167870318625e88b1b05ee772022f1b14"),
    "2.5^2(4)": (
        "7ec301e6baea624b755edf20000c9459f8652bf24533211e43faed0648efa292",
        "91aac72ee7284f4a4a4340f3015b681dd5ca69b39bfcc402183bae280cb65896"),
    "2.5^2(5)": (
        "1a81369546adadc78f1e851798b6fdd04f6bbf62f2085fc828cdde05c0c09185",
        "4a8f4d232da81f157abbf8c44af9700c18da65eed1501c43efb98782fd4af580"),
    "2.5^2(6)": (
        "0d10c227e412fb7f4e5f63ef48f44e28e54352f1b3bdedcd0ce5446a160f02a6",
        "2237ab7e96f33bbbdd1cdfe6c71adfa15af2af585d4a7bc546c8005adcf8c053"),
    "2.5^2(7)": (
        "53a6f915bbb6688c40a33461844654f64c808f590a62c4f905a65a1663f58e8b",
        "87b68cdb79ee5285742c575951d43561cba98d51e8cbb13461da3265f37b0b3c"),
    "3.2^2(2)": (
        "2c9bbd3a155a146fbf1090cb0add44b496820bd5c9ca6a884abf193bf9d3ffb4",
        "31d75405fea8607e177fca88df96ddec19ff1d991ca7fe3efd6f6ad179561d92"),
    "3.3^2(2)": (
        "1df50462371745acd98ce95c4a870e8c6d7e6bd34e4390df67825deee9ef3e7a",
        "52c08c62fcf764af0e495e2b077cc278d72b4296b54ffe5926d5e0c1f48f15bf"),
    "3.3^2(3)": (
        "f76ac4c76132fe85dce939bf0143792fb5ff734fc777ba0e131a2ae67a75f8be",
        "0ae0dc91138cb4387fe0d46fb32c13efe2ee781ac1ad2d925285f91d1e389ea5"),
    "3.3^2(4)": (
        "9d771da1c50feab4ab93e29198daed2437b3119eead4c6490afe9ae50836866c",
        "1f36132689b73547893d472cf2da6b86e5e771de9b1f97922765b5e44fed6eaa"),
    "3.5^1(2)": (
        "8b7069f00fc9470f0b9b34c7e895d84b21b60f66c6383219e3ec67d795467869",
        "88e0e2ddff5f330adcd6143f043195b708c18bb79a3bfff9fd2929bb9b8a21f2"),
    "3.5^1(3)": (
        "f0cf6030c125e52a24f2966d852ca66778a4efbd74b29e5f3fae69336398bf40",
        "e188bc356cc603b2ba9091ceb069f4a498770c57f5733827a78c74b7cbaf6534"),
    "3.5^1(4)": (
        "ba09145a912a02246f7b6c624d85395aa14683d2a3019dc362076c80d94418cb",
        "1b8108d0ede5ae63721cb5f38e322b76545c4e27a428ff0ca96cee066fb607ef"),
    "3.5^2(2)": (
        "49742d8d62ea8526e45951f4b7d6cca3fa1ccf091eeed691fd4e401b2b7a7afc",
        "e11bb9c888d65bd9258440e71c025fb104d7f94c0fdeb46f042585248f1e17e3"),
    "3.5^2(3)": (
        "d071a6fcc10315f8360a476fed22e2a1f6413b720b7ddc30358ed43868c20755",
        "7a1dcd64188b4a8012fc5a02a1ab4a2546b93a41807486d793191faed3119ba3"),
    "3.5^2(4)": (
        "fbeeb6ce60b53bd3baca5dd0f667e8a313a8b5eaf0cb315cea9d7e1ae987b61f",
        "f5c501edb28a8e31b997232ea338570667a3e49c1b453a9b5fae3cc008617976"),
    "4.1^2(1)": (
        "69fdbc4d5aad3eaa66075925f5d559f2b0c23922b72aa247e5ea9ab7a3404c91",
        "53b5b251e9a1fa187710d622710e0e802b65407661c6bb4cd581c0e8304e2ecf"),
    "6.1^3(1)": (
        "491bb1e139995d2d2d2888898a92dc808fc30c5a825947abdf3fd466691ae716",
        "6ae19c4c9cf91beb89e316f98e2b7ae22a5b5a6a13089f49e87f2ce575d43ddd"),
    "6.1^3(2)": (
        "2a5fee043ca71f38714bafb5a7046ec6e3f9c408ece9def21e7676b84215086a",
        "8168f72fa20664b8e3b2d3261b74ff8dcfb2274f82b2ff63a377377c6bc477fe"),
    "6.1^3(3)": (
        "9f70097c3e811f71eafa07da550b9a324cfea5b3dae6f68ebd1c91946935c9c8",
        "788ebd0987cce8fff890e9fc2366be728d4b9520a5bc4496c0576a75acffc700"),
}
VALIDATE_DIGEST = "a003c53e7fa9b6f2e3a81638fa5aa5db68d56665645a1ef21fd9282aca432d5f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_digests(catalog, reports):
    assert [e.pair.case_id for e in catalog.entries] == list(REPORT_DIGESTS)
    for cid, (json_digest, md_digest) in REPORT_DIGESTS.items():
        r = reports[cid]
        assert _sha256(json_dumps(report_to_dict(r))) == json_digest, cid
        assert _sha256(report_markdown(r)) == md_digest, cid


def test_tables_digests(catalog, reports):
    data = tables_data(catalog, list(reports.values()))
    assert _sha256(tables_markdown(data)) == TABLES_MARKDOWN_DIGEST
    assert _sha256(json_dumps(data)) == TABLES_JSON_DIGEST


def _cli_sha256(capsys, *argv) -> tuple:
    """Exit code of cli.main and the sha256 of what it wrote to stdout."""
    code = main(list(argv))
    return code, _sha256(capsys.readouterr().out)


def test_solve_digests(catalog, capsys):
    assert [e.pair.case_id for e in catalog.entries] == list(CLI_DIGESTS)
    for cid, (solve_digest, _) in CLI_DIGESTS.items():
        assert _cli_sha256(capsys, "solve", cid) == (0, solve_digest), cid


def test_report_digests_under_a_holonomy_metric(capsys):
    for cid, (_, json_digest) in CLI_DIGESTS.items():
        code, digest = _cli_sha256(capsys, "report", cid, "--format", "json",
                                   "--g-holonomy", "5=3,6=4")
        assert code in (0, 1) and digest == json_digest, cid


def test_validate_digest(capsys):
    assert _cli_sha256(capsys, "validate") == (0, VALIDATE_DIGEST)
