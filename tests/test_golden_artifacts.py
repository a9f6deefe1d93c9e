"""Golden artifacts: CLI stdout stays byte-identical across refactors.

Each hash is the SHA-256 of the command's stdout at a fixed seed.  A change
that alters a single byte of an exact value, an MC estimate or the
formatting fails here.  Sampled matrices, Markov `simulate` files, and
threaded Hankel `simulate` files and stdout are pinned the same way.
`norm-scan` values are pinned to 1e-12: its Lanczos norms agree with a
full eigensolve to about 1e-15, not bit for bit.  So are
Toeplitz `simulate` eigenvalues and moments, which come from two half-size
solves and were captured from full n x n ones.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hmt.limits
from hmt.cli import EXIT_OK, main
from hmt.ensembles import gaussian, rademacher, sample_matrix, shifted_gaussian, triangular

GOLDEN = {
    "words --k 4 --method exact":
        "67075e6e6a0c8cedeb7e66407983f2d3bdb6e75a8238108b60eae5bdb3e73a60",
    "words --k 4 --method exact --format json":
        "8707995e8d00bfdfac21c3f020b5c7603fb071a507754599c40ccb0b3f3f955e",
    # both families' exact values on all 945 words of k = 5
    "words --k 5 --method exact --format json":
        "df563c12a00bf047dcf9f223c3c1688708fd356ac4fd973d0d7dcbc2f63ee548",
    # all 10,395 words of the largest exact table, 554 orbits
    "words --k 6 --method exact":
        "0bcf8f73bd9077923ee8c18a78a7814a8c16d25075cf848f9f789989f8c20ea7",
    "words --k 6 --method exact --format json":
        "cb8595b4b67857d7d61e19153c35a8f2b8e950a318dd560621eed47f0582ee56",
    "words --k 4 --method mc --samples 5000":
        "c05ccc6f767a97cca44a0357e4936c6f25dae2898c7178cd7aabc566f59cdab9",
    "moments --family toeplitz --max-order 10":
        "98a8da2ef0c7d1e1d06a759184991a35cbc594f346547d68e01e4b784b8e04f9",
    "moments --family hankel --max-order 10":
        "250fedf57ee7877e38543c1a53109f0a6f2db99c413baf8b51a38a4055705673",
    "moments --family hankel --max-order 8 --format json":
        "93fb951c679d0f362ca6da4ef0035269a76696c4196853575515628f0f4a7958",
    "moments --family toeplitz --order 6 --method mc --samples 5000":
        "10c0cab48a2c8166feec5abe9d71f39c23ab57a9a51cfb555b8bcf06ab9d782f",
    # 6-dimensional Toeplitz systems, the 120 non-flat Hankel systems of
    # k = 5, and the Hankel MC route of limit_moment
    "words --k 5 --method mc --samples 2000":
        "9c5bc2a7fc2f2f0e3e66f80f7a40bbf3e6cf648be276e1eacef9d80547df27a2",
    "words --k 5 --method mc --samples 2000 --format json":
        "0405c86df9a16b90c0793bcdd7200d1a2e28581659a8aa2d7dd920add232ce6b",
    "moments --family hankel --order 8 --method mc --samples 5000":
        "112a615ca3c882a0f30d63b9ac709f4000986654a3a8702617fdf8938c1c3bab",
    # captured from the sum of 2**height(w) over all 2,027,025 words of
    # order 16; the command now reads the moments off the cumulant series
    "moments --family markov --max-order 16":
        "6860e8c2fe6d196559caaf39582c869a31f3d39e4b0cbbc4f436519a96473b14",
    "moments --family markov --max-order 16 --format json":
        "509a0f755f53be1735046aa6a1f5079ea33d5051d3e59d0018b83b357b692442",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_hash(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("command", ["words --k 5 --method mc --samples 2000",
                                     "words --k 5 --method mc --samples 2000 --format json"])
def test_monte_carlo_words_hash_for_any_worker_count(command, workers, capsys, monkeypatch):
    # the word volumes run on hmt.limits.mc_threads threads
    monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws: workers)
    test_stdout_hash(command, capsys)


# the Monte Carlo word table of the benchmark's words-cumulants workload
BENCH_MC_WORDS = "words --k 5 --method mc --samples 20000 --seed 314159"
BENCH_MC_WORDS_SHA256 = "cc93c2ff63f2e222c478f6a0c351c55585deb2a6574240a580a9daa9bf0b80d4"


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_monte_carlo_words_hash(workers, capsys, monkeypatch):
    monkeypatch.setattr(hmt.limits, "mc_threads", lambda draws: workers)
    assert main(BENCH_MC_WORDS.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_MC_WORDS_SHA256


EMPTY = hashlib.sha256(b"").hexdigest()
# argv -> (exit code, SHA-256 of stdout, of stderr) at COLUMNS=80: help, usage
# and error text, which main builds from one command's parser when argv names
# one and from all four otherwise.  Captured with Python 3.11's argparse, whose
# layout other minor versions change ("options:" was "optional arguments:").
PARSER_TEXT = {
    "--help": (0, "c2aefbc7e92197c85c7725655d34686754a639215b93dc59ee753039ecf752c0", EMPTY),
    "-h": (0, "c2aefbc7e92197c85c7725655d34686754a639215b93dc59ee753039ecf752c0", EMPTY),
    "--version": (0, "0ebf304b7cf3021de79fec6c0ba443b51244d5c04a2a55938444db7d0c8c01ea", EMPTY),
    "words --help":
        (0, "cf4486a2b7edd42311f5192f717fb7681c0a0eb703d6e903f8b3f09121302087", EMPTY),
    "moments --help":
        (0, "208e969aafcbd7a4f80898a17b5abaafa57215e7eb3474e231b4a2a2a980641f", EMPTY),
    "simulate --help":
        (0, "6a4e593c82e6622ff3d26abfd964d44de1f0e194bc1cc480f4b51ffc7455e230", EMPTY),
    "norm-scan --help":
        (0, "aa0dd3b0a0af822892904569f2e4e6183fa6fb77db1189c740e44aa6a44f8bf5", EMPTY),
    "": (2, EMPTY, "b375597f8610190206c7b227797ae8cca1647f36a3759deb4a4a8811a2443d96"),
    "mom": (2, EMPTY, "be9322443f511c68634795a95a4f651dd2c14d2b4c17f87ab2ca8050d34a70a4"),
    "moments": (2, EMPTY, "5c6a686a5fedaceade93aa4b927aaff2c6eee077fcbc6fafe8a7000922b1afc0"),
    "moments --family x":
        (2, EMPTY, "8d876ff7d67139645de7788d12ff0b41fb92a56c16cd7b02da042cee1f237837"),
    "simulate --n x":
        (2, EMPTY, "fd3a3136e24f4857b9429ecd414b7bff4e0ef149a147110c33c8f9547a91d476"),
    "words --k": (2, EMPTY, "2bcd0a34d69d894b2c92755edf0a3db86872fea6cee657fff73683ec9856f2e6"),
    # the top-level usage line, from a parser that holds one command
    "moments --family hankel extra":
        (2, EMPTY, "96adcecb8a436b85fe536dd65d4d7a217523c8d449dc1c6a4dfde3ba6b5f1f9e"),
    "--seed 3 moments":
        (2, EMPTY, "6c4094956a9833fbad56218ae8d2462160b58c9aa08b33d085c9a8c7a06896fb"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout differs between Python minor versions")
@pytest.mark.parametrize("command", list(PARSER_TEXT))
def test_parser_text_hash(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    out, err = capsys.readouterr()
    digest = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (exc.value.code, *digest) == PARSER_TEXT[command]


LAWS = {
    "rademacher": rademacher(),
    "gaussian": gaussian(),
    "triangular": triangular(),
    "shifted_gaussian_1": shifted_gaussian(1),
    "shifted_gaussian_-5/2": shifted_gaussian(Fraction(-5, 2)),
}

# sample_matrix(ensemble, n, LAWS[law], seed=2718).matrix.tobytes()
MATRIX_SHA256 = {
    ("markov", "rademacher", 1):
        "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ("markov", "rademacher", 2):
        "c4019528e100f41323e1096f7c8029432fd52a30a766bc749b665fe3d53e1614",
    ("markov", "rademacher", 3):
        "2fa2c7640c3c134d814a57105a165048fd7a371f6a0ae19190c6cb147a6c592a",
    ("markov", "rademacher", 17):
        "95007c71b156fedd8c80697589b94476f40932e6840b7b32fcb35b1a81cc6d1b",
    ("markov", "rademacher", 256):
        "d8091e8abe58a9338d0f1a83c4493e08a04c5074f464abbf0cad18eca7f3218d",
    ("markov", "gaussian", 1):
        "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ("markov", "gaussian", 2):
        "06c8a0028fa815428b4424f40462d51455623c907eb6b99d6e1e1690abad8db8",
    ("markov", "gaussian", 3):
        "80934ef416902f24d0c19ff2c3fa97b9d57164fa3817c18f8daa611cc7e71a18",
    ("markov", "gaussian", 17):
        "d53f9baa69ca43c1d3e8c4282c1ca3e28e4fc855678db8db2638c1037f88e4b2",
    ("markov", "gaussian", 256):
        "9852c84e0b8abc3e60a065b0e1bdd66486155bfef920e48d08a513cab7367c3c",
    ("markov", "triangular", 1):
        "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ("markov", "triangular", 2):
        "7662507ecbacaca2f05cdaec3783fc518c52f3d495088056244c35a724737831",
    ("markov", "triangular", 3):
        "3053a08d35bf65c3b6921fc526c0514bee5b708a3365d7f4773a797b8413caa6",
    ("markov", "triangular", 17):
        "cb20991b04d8f156db1c85c2ef2c29f82cb02bfe4a40a7f3bbd41e5d29c45904",
    ("markov", "triangular", 256):
        "6a9c1474a446be43790bf8d51ca8a8569368a22da7643d1f001b05ae2ad11686",
    ("markov", "shifted_gaussian_1", 1):
        "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ("markov", "shifted_gaussian_1", 2):
        "0e8bac430b80523e2fc97a92ead7b08e67a8762c8ae4e1c099042076b7b76e7a",
    ("markov", "shifted_gaussian_1", 3):
        "5cd241e21a61097d515491be02f4b8ed8ea75454874066e8441e7df78db328a4",
    ("markov", "shifted_gaussian_1", 17):
        "f00cc1be2960fb5fb5039f141d4562c61c359d25a13523a0ea0ab5eb382b43b2",
    ("markov", "shifted_gaussian_1", 256):
        "3bae023265f6e274bd6c9123326361ee5efc2ecd52966e458b3316a1c8c06887",
    ("markov", "shifted_gaussian_-5/2", 1):
        "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ("markov", "shifted_gaussian_-5/2", 2):
        "8ab7c118eb69e3232cfc87e321310301f3f4d8e528c71d69cfd4366ff6a34436",
    ("markov", "shifted_gaussian_-5/2", 3):
        "3b41e97b4f399d34337bdac21b27fd881fb0a70960802cee563900efd10c7764",
    ("markov", "shifted_gaussian_-5/2", 17):
        "1d80a0adbcde36468b50c8a81fba96b0c348b6ee3b0786e887f6092da516421a",
    ("markov", "shifted_gaussian_-5/2", 256):
        "0400e01060c48235d8d6bbad542e4d0f08878f3402fedb138f2a90b8926fa890",
    ("wigner", "rademacher", 1):
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("wigner", "rademacher", 2):
        "c9a2fb79c96caefae3797082eb0820d925a5170c74bcba2446db9484124acb82",
    ("wigner", "rademacher", 3):
        "177bf32f649b55debe586b18182fc9839802f0ba8be9847f3b473c66cea64656",
    ("wigner", "rademacher", 17):
        "cff872dd35a2c0cbbabc76aaf00c6beda5a411a629f44881db4fb72e783c1c33",
    ("wigner", "rademacher", 256):
        "108728f9118b19ff6318c2e24e85f33af6bb292ac2173eaa2af21d87731262c7",
    ("wigner", "gaussian", 1):
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("wigner", "gaussian", 2):
        "8dc54b65dbbb9b6cee3de3aebbb695b55677168805b74edc44b3c9cf8f7a6581",
    ("wigner", "gaussian", 3):
        "c5845374675069a6913b502d50d546e8a352dfc6fd68dd15f82edbd12f10e67c",
    ("wigner", "gaussian", 17):
        "e1ed66cce65f7a335b68fd3146832a48656939b53c3e105835424152e79a8763",
    ("wigner", "gaussian", 256):
        "e5f8a54f3b4b1dcb33382904ff05b28b2481a431471e7c6b0c75863d8c5764ef",
    ("wigner", "triangular", 1):
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("wigner", "triangular", 2):
        "b88d77249df945ed6e4ef7e43bc34cd8411f772238ea43704b52a13addc430fe",
    ("wigner", "triangular", 3):
        "e8f6455d8ad4bfec9240eca9395065e7514e61cb91e1678f6fb702c9bc0c1ed8",
    ("wigner", "triangular", 17):
        "d4a056565193d77fea81b6c1d292138fdc9ee1589f84fffa14931d1834ac83cc",
    ("wigner", "triangular", 256):
        "ce5b6bd0da33eba2cc0cc964fdbf03c6f3d96de4f96fe6110490c45725c6455f",
    ("wigner", "shifted_gaussian_1", 1):
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("wigner", "shifted_gaussian_1", 2):
        "b9fcdc7c8633bc928374756cf4455ba6dde39d6d5074407a35599d72b7c460c9",
    ("wigner", "shifted_gaussian_1", 3):
        "9779487a86860b730bf114a28ad7452b1f40fef6f6103ffb644b00ab107c67b7",
    ("wigner", "shifted_gaussian_1", 17):
        "5c19de8a828d48ba7b4f6bee18b27b188f9d6ec9bb45aadbf1c544932d83fecb",
    ("wigner", "shifted_gaussian_1", 256):
        "6a3e19972e5ad09ef87def0e08ca531b0aa907d1bf077942eaf95976cd85168a",
    ("wigner", "shifted_gaussian_-5/2", 1):
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("wigner", "shifted_gaussian_-5/2", 2):
        "570c6306f8a97a06454a4d130573ef27d09e87f376a983e1ae33796d16258bde",
    ("wigner", "shifted_gaussian_-5/2", 3):
        "7b9c833ced2903f140356ae0a4810962e5a970e3d6bd1dd368fdd21ae6119974",
    ("wigner", "shifted_gaussian_-5/2", 17):
        "42aff877f59402ad8ae91298182232c75243bed741b13a6f964eb47ed5bcbb2e",
    ("wigner", "shifted_gaussian_-5/2", 256):
        "253fc3c0ab15dae6bf00d7d1dabf35e8628c6a285b40617f25990a5b593e6b44",
    ("wigner_plus_diag", "rademacher", 1):
        "275fa3aa82a58c3cc84863d3a3ceaa992005ed6519e01d14e49a738d26200eaf",
    ("wigner_plus_diag", "rademacher", 2):
        "8502ecd8751afdf808f07c5210d6ab85f251f127a3d9703147e0b0c5d4d7b73f",
    ("wigner_plus_diag", "rademacher", 3):
        "57770d123440d69a3cdec8ae21585bd5b17cff46381038966082993b25e55ddd",
    ("wigner_plus_diag", "rademacher", 17):
        "c18dab247fd5d1697d7f8387a8b725b71156011750861dfd3a61e2f6029f3aff",
    ("wigner_plus_diag", "rademacher", 256):
        "33a578a77a167a860abb6b005704ccd01efef2d7c75d026ad36fd6bb222966ec",
    ("wigner_plus_diag", "gaussian", 1):
        "275fa3aa82a58c3cc84863d3a3ceaa992005ed6519e01d14e49a738d26200eaf",
    ("wigner_plus_diag", "gaussian", 2):
        "ccb74efe8a090e4fe4660f094f376652d1a8214dc18b340d8f3dc57c20cb05bc",
    ("wigner_plus_diag", "gaussian", 3):
        "46bdaf1dc0bf6cf7facec23e3370e65975825b6745e574e8c8fe3e8a2c69f6b1",
    ("wigner_plus_diag", "gaussian", 17):
        "6a3d14eaeda0834e4fc9a013f4b4de24a0a7fc1cb38fbb588a77a3d619eb7373",
    ("wigner_plus_diag", "gaussian", 256):
        "aaade9fb34174009814c6681b3c43bc98317e669eb766fda932bec70cfb7c54c",
    ("wigner_plus_diag", "triangular", 1):
        "275fa3aa82a58c3cc84863d3a3ceaa992005ed6519e01d14e49a738d26200eaf",
    ("wigner_plus_diag", "triangular", 2):
        "b4cae0e43e2974c5657d984c803ed0b2cd574c36e7399c8c2609bdd327feac72",
    ("wigner_plus_diag", "triangular", 3):
        "a0fa4eadd044b061d8d7f1a2ab838ecb8c0264576ae61375c69253b117f81555",
    ("wigner_plus_diag", "triangular", 17):
        "8036b6478f52b65e297cf69e0104546b2a86f24c1de98d4675253f4201ee2a12",
    ("wigner_plus_diag", "triangular", 256):
        "2ac2eecea66e3800833db6cb9eaa14c341e233479eb08a14d571a94147ed4284",
    ("wigner_plus_diag", "shifted_gaussian_1", 1):
        "275fa3aa82a58c3cc84863d3a3ceaa992005ed6519e01d14e49a738d26200eaf",
    ("wigner_plus_diag", "shifted_gaussian_1", 2):
        "56f44863975b1ded17fdb9fdae8063e103e9ba7244db60a77f4d7785531a102a",
    ("wigner_plus_diag", "shifted_gaussian_1", 3):
        "94f354da038ab9994b75039c3eb63ef2c897df8ac1c9573fef978cf63efe3aa8",
    ("wigner_plus_diag", "shifted_gaussian_1", 17):
        "a0a1dfd9db8132860e34cca2f1abe14cb8770d446d240ccb52e1deb82d4c368b",
    ("wigner_plus_diag", "shifted_gaussian_1", 256):
        "bb53016a4f722a8bd727ca1307f496fb56aa84d6a428e5fac5fb5a5860b6214c",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 1):
        "275fa3aa82a58c3cc84863d3a3ceaa992005ed6519e01d14e49a738d26200eaf",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 2):
        "33456320de91b520b0aadf00bc65f8928f744b40803aa3e1b3a7cdabd485742f",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 3):
        "2fd368be560151916fa9cb79a5025a0ee380313fb8d04f1c4048244387250477",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 17):
        "d66f84ebb2b5ec377b7ffdaaaf41c0f999f47ae1d2c0fb124257df60d5019dac",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 256):
        "4d62967788231cefc56826ac9f8391f21e168e4fcf8a3fd3951dc61cbac57c47",
    # n = 1030 is not a multiple of the 64-wide mirror tiles, and its
    # 529,935-entry triangle is drawn in several 2^16-value chunks
    ("markov", "rademacher", 1030):
        "18369bba5a33ca3ab33e9878d6f6360e2f66fb32421c8569b01da01228f8d3eb",
    ("markov", "gaussian", 1030):
        "18e1e515e1653539dbeb105b0842b029df9866c9e7dd3e1af31e7a0a942c8b28",
    ("markov", "triangular", 1030):
        "c21c1e981045cb4e02ead89e97f59a05afe03cbca401af2936c3d8893c1edaa8",
    ("wigner", "rademacher", 1030):
        "80b30a82368105518e137f17f0c1721bf8ae09267b6f036df2e3af0d643fd851",
    ("wigner", "gaussian", 1030):
        "b02a9c0fbe722b9ce13e08bc6db229c5abfb272cf28ba7202085daeccaed9da6",
    ("wigner", "triangular", 1030):
        "2d43a81d4e9c16fdad67954f2203adf6a11382ef82fb719a286e039895e6ad39",
    ("wigner_plus_diag", "rademacher", 1030):
        "2d4842815a4421c32b3f29fb2d7f26aef7d93e25ff13cee9471a326d06ebee42",
    ("wigner_plus_diag", "gaussian", 1030):
        "f6e8b741ad177c8c4113a9be59a1d57df5844cc89aa2f37f8b3f0382a4a35f9c",
    ("wigner_plus_diag", "triangular", 1030):
        "9956ed4422d7385cbab3ebcee86823ea706cf62839206d199702ba4226a6e45c",
    # n = 2100: the 2,203,950-entry triangle is drawn in row blocks, one per
    # usable CPU up to 4, each from its own skip of the stream; the pins are
    # those of the triangle drawn in one piece
    ("markov", "rademacher", 2100):
        "9e39045a845d377368d13f2fa72e372c394ff747faa954cf94b4c1b2ae526cf0",
    ("markov", "gaussian", 2100):
        "d0910ee5c3ae05dc01015c5f40868afd2b11f7073bdb522eaec89bcee2c8b1a9",
    ("markov", "triangular", 2100):
        "29adb19256e0fc6df071b94400975de48e8c963862ede11f46db6052827bee51",
    ("markov", "shifted_gaussian_1", 2100):
        "f55d738f315e9f89002a5bf8964ef85d0de03d7c7663e3a081c98076e5ca1ba9",
    ("markov", "shifted_gaussian_-5/2", 2100):
        "60939c081e9971d17189f2870740de1e1305129ff49f25a8bc22bbc42d439667",
    ("wigner", "rademacher", 2100):
        "ccdc5b52f47aadd3c10471d132200fa67d1fe9af767e1b584a6656afb336a15d",
    ("wigner", "gaussian", 2100):
        "0223032cfe7393d87021da8410a68167bec66542d4b936e47e777a698b287ee1",
    ("wigner", "triangular", 2100):
        "d2a615b2fe9d0f29ed2cf597998436881b0df9f25e81ff80c6ad583192b93ae8",
    ("wigner", "shifted_gaussian_1", 2100):
        "d41f0e6a48e9cceb35b791b969017c48d139ee3262766132c80bc601aa79e84e",
    ("wigner", "shifted_gaussian_-5/2", 2100):
        "63ec1261d114d06d4c5b96616b9a49a5c180b6cc3a8b4471a9489c927dad4b9a",
    ("wigner_plus_diag", "rademacher", 2100):
        "256ed33163bbcda775da577d99ba6b49f128c5d41bf2de08a700c8b08ef60ee8",
    ("wigner_plus_diag", "gaussian", 2100):
        "da859d43f4d36f1dab51ad39b43b1d92b10a886852a14349070febeb9969e1c6",
    ("wigner_plus_diag", "triangular", 2100):
        "50fb550023430c1f049f72c718ef8ff544a74709145c6727935af8a8d989c2d3",
    ("wigner_plus_diag", "shifted_gaussian_1", 2100):
        "38b756066f31f6872f53f23c892c2ff18f4d6a07f407b489e21baf80b0aa9ccc",
    ("wigner_plus_diag", "shifted_gaussian_-5/2", 2100):
        "7f0b890a297a3dd1a25047dacf0975b0b794a181969420ec1ef98b27a2540213",
}


@pytest.mark.parametrize("ensemble, law, n", sorted(MATRIX_SHA256))
def test_sampled_matrix_hash(ensemble, law, n):
    matrix = sample_matrix(ensemble, n, LAWS[law], 2718).matrix
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == MATRIX_SHA256[ensemble, law, n]


SIMULATE_SHA256 = {
    "markov_eigenvalues.csv":
        "c00d14329f192928a1771a4247e25da49230f959b4be935d931130d8d4fd294c",
    "markov_histogram.csv":
        "fef6ce9a74ab6b60c25a5469293f33eb824b36dcbf0982f3a010a20549a9248e",
    "markov_moments.json":
        "2c3d5e868f0875174b93f47fb2fe17d9a8d2b9a78d468feae4d9a4ec000cd9a8",
}


def test_simulate_file_hashes(tmp_path, monkeypatch, capsys):
    # a relative prefix: moments.json echoes it in its config
    monkeypatch.chdir(tmp_path)
    code = main("simulate --ensemble markov --n 64 --replicates 4 --output-prefix markov".split())
    capsys.readouterr()
    assert code == EXIT_OK
    for name, digest in SIMULATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# full n x n solves (Hankel is not centrosymmetric) on four threads; stdout
# echoes the prefix and the moments
SIMULATE_HANKEL_SHA256 = {
    "stdout":
        "2ede1ac535ac2f288c91f285a26552312e71accfa998c6744cf8ae07f484a4c0",
    "hankel_eigenvalues.csv":
        "9883d0603f0486ceb0177cd3844b12a82f3fd72f855e719d4f55309dc971ff91",
    "hankel_histogram.csv":
        "75cea439027493251b9bd2074cb9293bad2914d59255e3c198e5f645e3362551",
    "hankel_moments.json":
        "b95558d305770dceebe2112d16437d89909c0f272dd02bc42a26bbc15f590e57",
}


def test_simulate_hankel_threaded_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main("simulate --ensemble hankel --n 48 --replicates 6 --dist triangular "
                "--threads 4 --output-prefix hankel".split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_HANKEL_SHA256["stdout"]
    for name, digest in SIMULATE_HANKEL_SHA256.items():
        if name != "stdout":
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# `simulate --n 256 --replicates 2` at the default seed.  At n = 256 the
# blocked LAPACK reduction rounds differently on one BLAS thread and on two;
# these are the one-thread bytes, which every simulate solve now gives
# whatever OPENBLAS_NUM_THREADS says, captured from the scipy.linalg.eigh path
# with OPENBLAS_NUM_THREADS=1
SIMULATE_N256_SHA256 = {
    ("hankel", "triangular"): (
        "75b001df03ee9800e9f3b7638c6b1a53b2b66ea21185b990bea272f611c539bf",
        "8a22c33cb45be84a6278c596b83938ea1198652c2a0302a8fa0948558b428df5"),
    ("toeplitz", "gaussian"): (
        "05011a5f06bf2f7b05b4e86a780f66fe8e40533410574f8082b1d15646b6626d",
        "0def6674032c38ef3c0cdd0950e80cbb69467a714afc6950a5007cbb349b4f7e"),
}


def simulate_digests(prefix: Path, capsys, *flags: str) -> tuple[str, str]:
    """SHA-256 of the eigenvalue and histogram files `simulate` writes."""
    code = main(["simulate", *flags, "--output-prefix", str(prefix)])
    capsys.readouterr()
    assert code == EXIT_OK
    return tuple(hashlib.sha256(Path(f"{prefix}_{kind}").read_bytes()).hexdigest()
                 for kind in ("eigenvalues.csv", "histogram.csv"))


@pytest.mark.parametrize("ensemble, law", sorted(SIMULATE_N256_SHA256))
def test_simulate_n256_hashes(ensemble, law, tmp_path, capsys):
    got = simulate_digests(tmp_path / ensemble, capsys, "--ensemble", ensemble, "--dist", law,
                           "--n", "256", "--replicates", "2")
    assert got == SIMULATE_N256_SHA256[ensemble, law]


# `simulate --n 2 --replicates 3` at the default seed.  A 2 x 2 Markov or
# Wigner matrix is centrosymmetric, so each is solved as two 1 x 1 blocks;
# captured when those blocks were carved from the matrix's own bottom row
SIMULATE_N2_SHA256 = {
    "markov": (
        "d38c6d10f660b12081324f43f037cb7d396198305edcb941fe9a0e291de83ad7",
        "c6ece1dd892538ec55fb743a5e452a1c437bd68373603b28eb5131aedb07b611"),
    "wigner": (
        "d84ad68dda8136c4d97ff4e54ffc7336361bef5551a9087279019cfd6c4e46be",
        "e95ba8c0613c51150c4f26f4be750688dd242434a7b8452a592c19efebeb093d"),
}


@pytest.mark.parametrize("ensemble", sorted(SIMULATE_N2_SHA256))
def test_simulate_n2_hashes(ensemble, tmp_path, capsys):
    got = simulate_digests(tmp_path / ensemble, capsys, "--ensemble", ensemble, "--n", "2",
                           "--replicates", "3")
    assert got == SIMULATE_N2_SHA256[ensemble]


# pooled eigenvalues and moments of full n x n solves, one command per key
SIMULATE_TOEPLITZ = json.loads(
    (Path(__file__).parent / "data" / "toeplitz_simulate.json").read_text())


@pytest.mark.parametrize("command", sorted(SIMULATE_TOEPLITZ))
def test_simulate_toeplitz_values(command, tmp_path, capsys):
    code = main(command.split() + ["--output-prefix", str(tmp_path / "toeplitz")])
    capsys.readouterr()
    assert code == EXIT_OK
    want = SIMULATE_TOEPLITZ[command]
    lines = (tmp_path / "toeplitz_eigenvalues.csv").read_text().split()
    assert lines[0] == "eigenvalue"
    assert [float(x) for x in lines[1:]] == pytest.approx(want["eigenvalues"], rel=1e-12)
    rows = json.loads((tmp_path / "toeplitz_moments.json").read_text())["results"]
    assert [row.keys() for row in rows] == [row.keys() for row in want["moments"]]
    for got_row, want_row in zip(rows, want["moments"]):
        for key, value in want_row.items():
            assert got_row[key] == pytest.approx(value, rel=1e-12), (key, got_row)


NORM_SCAN_RESULTS = {
    "norm-scan --ns 64,256 --replicates 3": [
        {"n": 64, "ratio_n_mean": 0.4114128900495528, "ratio_n_stderr": 0.04364634307160699,
         "ratio_sqrt_2nlogn_mean": 1.1412072656129928,
         "ratio_sqrt_2nlogn_stderr": 0.12106942936269181, "replicates": 3},
        {"n": 256, "ratio_n_mean": 0.2224984381011845, "ratio_n_stderr": 0.012241975779709738,
         "ratio_sqrt_2nlogn_mean": 1.06899143969327,
         "ratio_sqrt_2nlogn_stderr": 0.05881644574732131, "replicates": 3},
    ],
    "norm-scan --ns 64,256 --replicates 3 --dist shifted_gaussian --mean 1": [
        {"n": 64, "ratio_n_mean": 1.365598280271463, "ratio_n_stderr": 0.012571921919487689,
         "ratio_sqrt_2nlogn_mean": 3.7879967231136003,
         "ratio_sqrt_2nlogn_stderr": 0.0348729196003328, "replicates": 3},
        {"n": 256, "ratio_n_mean": 1.2003704475991581, "ratio_n_stderr": 0.0065236760973406745,
         "ratio_sqrt_2nlogn_mean": 5.76716737382548,
         "ratio_sqrt_2nlogn_stderr": 0.03134293419272163, "replicates": 3},
    ],
}


@pytest.mark.parametrize("command", sorted(NORM_SCAN_RESULTS))
def test_norm_scan_values(command, capsys):
    code = main(command.split() + ["--format", "json"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert code == EXIT_OK
    want = NORM_SCAN_RESULTS[command]
    assert [row.keys() for row in rows] == [row.keys() for row in want]
    for got_row, want_row in zip(rows, want):
        for key, value in want_row.items():
            assert got_row[key] == pytest.approx(value, rel=1e-12), (key, got_row)
