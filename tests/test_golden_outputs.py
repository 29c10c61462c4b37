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
        "a6d8eed6bb7e8018bf045af739db37df30c0d294e8b486e5342784a465cf0a74",
    "fit.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate.stdout":
        "5091be9a66885dc148fb20060de9ecdce5d2e4d288309f412b969654494aab6f",
    "evaluate.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "crossval.stdout":
        "4f636d974ce6b6a1772d840c8ef42621484a38935e49582b85de90a1676cca3b",
    "crossval.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cv/pr_curve.csv":
        "638c47a156ff28e6a246e96273d555dc3d9581168f6dfd224e74c07b42f8bc0e",
    "cv/report.json":
        "9f9c66dd9ae8d560ffcf1f1a92a097ac20bf990adbe5244ce9bc1d60cd5dc1ac",
    "cv/report.txt":
        "f55ac2e7e8d4d6523ea52c3148764709544e7b57bc72922062afadeae83d09cf",
    "dataset/ascents.csv":
        "71eef06503191d924f1732551bcdf18b01e7d0035b89b07519f06bffd62c9b6a",
    "dataset/climbers.csv":
        "1f046da50e4db230b364c7480ba9f5a58aa0c65bea3221410431b1170cc1b6db",
    "dataset/provenance.txt":
        "efd7b207bda8b445be74218a34ded673a3e9fc2e8e4f23e85beafbd2910cc3e8",
    "dataset/routes.csv":
        "37bfd7dd95c1372ec85d253e70220f5b8b9a2da887d60d977ded6876e5ca4ed5",
    "eval/pr_curve.csv":
        "bc27278a2f003c00c9fa24fc31101a3f98d1ada2cc91446479ee30315e2c6872",
    "eval/ratings_vs_grades.csv":
        "e1a48acf426d0375ba8694c5fd0ab0415d04b39f5a02f9e2ff252a9bfff0b863",
    "eval/report.json":
        "0f829267863c46012e4308c816c59bc78ead5f1f86fd2006e4bcb22455f8d4fa",
    "eval/report.txt":
        "27a5f4fda2070d6d7088f4280ca1ccdc99774c0faca99e877f4065c8f52377e0",
    "predictions.csv":
        "a8c4fa1d9db738d15c84c8029192b7928b59923ec79d512d89239f64a366d694",
    "ratings/climber_ratings.csv":
        "965e9dba6bf0def18cd65092076f8680f8d41e672d19983a3c82c256e303418b",
    "ratings/fit_report.txt":
        "878d1b332be9681f085d26a9134d95b27b81c95e368293f992f61a68fd28d1b3",
    "ratings/route_ratings.csv":
        "d38718c95f2f448557fb8dd6c02c1e301b2ef02238d1981540695396168f4d73",
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
