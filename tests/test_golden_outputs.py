"""The exact bytes of every CLI output on one fixed synthetic log.

The pipeline ``synth --seed 0 → preprocess → fit → predict → evaluate →
crossval -k 3 --repeats 1`` runs in-process, and the SHA-256 of every file it
writes, and of each command's stdout and stderr, must equal the digests
pinned below.  A refactor leaves them alone.  A change that moves the
numbers on purpose (a different solver or stop rule) updates them in the
same change and says so.
"""

import hashlib

from cragrank.cli import main

# Known climbers and routes at weeks inside, before and after the fitted
# ones, and unknown ids on either side.
QUERIES = """climber_id,route_id,week
c00000,r00000,0
c00001,r00003,-50
c00002,r00007,10000
c00099,r00199,4
nobody,r00001,3
c00003,noroute,2
nobody,noroute,1
"""

PINNED = {
    "synth.stdout":
        "ff856c30e1ab0e0867841596a58a282bccf6aba8f0320f2a583349375a069636",
    "synth.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "preprocess.stdout":
        "d22422d29f2334f93655f937d5f0c040cc70ff30adb8bb14704332d2b5edadd8",
    "preprocess.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit.stdout":
        "a7b127aac91c99e32223f2856e204485f5eca9e06835c7d45febae861a27c1b2",
    "fit.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate.stdout":
        "98d224c9ec05d6bcf3679a4a69f4b77e7a17763c77805cde4d04f7a8e53604b2",
    "evaluate.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "crossval.stdout":
        "f80b335c48b9c5de755e1bd3b480ca4d92ceee416562e5806152d3718f3badb7",
    "crossval.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cv/pr_curve.csv":
        "d209570b292a261c97b82e54da7bfd80f381756b771f4daf406467be5bf8c0da",
    "cv/ratings_vs_grades.csv":
        "08bad5e1a699c9bd778b5763acd603f5921a8f366e90de2585046cc3b34d7199",
    "cv/report.json":
        "2ded030d9c45bbca03a8617e21ffbfc52b3ef0d695aee3dd1e658f95a8c7152c",
    "cv/report.txt":
        "ecaa666e19aff79e75db165296f56fe5aa964636e2ca34729e675a5d027a4ea2",
    "dataset/ascents.csv":
        "71eef06503191d924f1732551bcdf18b01e7d0035b89b07519f06bffd62c9b6a",
    "dataset/climbers.csv":
        "1f046da50e4db230b364c7480ba9f5a58aa0c65bea3221410431b1170cc1b6db",
    "dataset/provenance.txt":
        "efd7b207bda8b445be74218a34ded673a3e9fc2e8e4f23e85beafbd2910cc3e8",
    "dataset/routes.csv":
        "37bfd7dd95c1372ec85d253e70220f5b8b9a2da887d60d977ded6876e5ca4ed5",
    "eval/pr_curve.csv":
        "4d0a4003ecd1e085a203d528fee5e5e17c1be08c32bff42de92779246722b78c",
    "eval/ratings_vs_grades.csv":
        "08bad5e1a699c9bd778b5763acd603f5921a8f366e90de2585046cc3b34d7199",
    "eval/report.json":
        "6b2a5c4f1f034c8d706122d99a87189eb2d14f45b9b95c46b1d72534228df0e8",
    "eval/report.txt":
        "966b1408041b1706496218dfeb4b4aad1378a5d9505dde843d9f5a1ab4da2296",
    "predictions.csv":
        "8b82d2be88979d8ac7e96b253b9e68342505d66bcfd3ee1bc69e679603efaf75",
    "ratings/climber_ratings.csv":
        "5b8b25e6f8aab9533fd3c5ac9e5c3241786bec871e0599efa05539b983bbe591",
    "ratings/fit_report.txt":
        "70148ab60e096d89e6ecf4bf877c8fd0aab5a65fd9dcb04ace2f22d42d3489aa",
    "ratings/route_ratings.csv":
        "09f95f174ea29712103413f37faf4d35960e9407636d6cb9fa5023b98c3ef448",
    "synth/raw_ascents.csv":
        "199997e271961ada14e9a143d490d2afb074f83c20cd0e3c55d73080224ce6c2",
    "synth/truth.csv":
        "65215bf0e775cd67c8186519f41c84ac73b1b358924a8cb67615ab4ca0c6c6f0",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_pinned_digests(tmp_path, capsys):
    queries = tmp_path / "queries.csv"
    queries.write_text(QUERIES, encoding="utf-8")
    out = tmp_path / "out"
    digests = {}

    def run(name, *argv):
        assert main([str(a) for a in argv]) == 0
        captured = capsys.readouterr()
        digests[f"{name}.stdout"] = sha256(captured.out.encode("utf-8"))
        digests[f"{name}.stderr"] = sha256(captured.err.encode("utf-8"))

    run("synth", "synth", "--seed", "0", "--out", out / "synth")
    run("preprocess", "preprocess", out / "synth" / "raw_ascents.csv", "--out", out / "dataset")
    run("fit", "fit", out / "dataset", "--out", out / "ratings")
    run("predict", "predict", out / "ratings", queries, "--out", out / "predictions.csv")
    run("evaluate", "evaluate", out / "dataset", "--out", out / "eval")
    run("crossval", "crossval", out / "dataset", "--out", out / "cv", "-k", "3",
        "--repeats", "1")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    assert digests == PINNED
