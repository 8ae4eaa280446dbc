package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.PropChecks
import org.scalacheck.{Gen, Prop}

class MetricsSpec extends AnyFunSuite with PropChecks {

  // ------------------------------------------------------------ precision@k

  test("precision@k of identical top-k is 1") {
    assert(Metrics.precisionAtK(Seq("a", "b", "c"), Seq("a", "b", "c"), 3) === 1.0)
  }

  test("precision@k of disjoint top-k is 0") {
    assert(Metrics.precisionAtK(Seq("a", "b", "c"), Seq("x", "y", "z"), 3) === 0.0)
  }

  test("precision@k counts overlap regardless of order") {
    assert(Metrics.precisionAtK(Seq("a", "b", "c"), Seq("c", "a", "x"), 3) === 2.0 / 3)
  }

  test("precision@k clips k to truth size (skylines are often < 3)") {
    assert(Metrics.precisionAtK(Seq("a", "b"), Seq("a", "b", "c"), 3) === 1.0)
    assert(Metrics.precisionAtK(Seq("a"), Seq("a"), 3) === 1.0)
  }

  test("precision@k with empty truth") {
    assert(Metrics.precisionAtK(Seq.empty[String], Seq.empty[String], 3) === 1.0)
    assert(Metrics.precisionAtK(Seq.empty[String], Seq("x"), 3) === 0.0)
  }

  test("precision@k is in [0,1] (property)") {
    val gen = Gen.listOf(Gen.alphaStr.map(_.take(3)))
    checkProp(Prop.forAll(gen, gen) { (t, p) =>
      val v = Metrics.precisionAtK(t.distinct, p.distinct, 3)
      v >= 0.0 && v <= 1.0
    })
  }

  // ------------------------------------------------------------ Kendall-Tau

  test("Kendall-Tau distance of identical rankings is 0") {
    assert(Metrics.kendallTauDistance(Seq("a", "b", "c"), Seq("a", "b", "c")) === 0.0)
  }

  test("Kendall-Tau distance of reversed ranking is n(n-1)/2") {
    val a = Seq("a", "b", "c", "d")
    assert(Metrics.kendallTauDistance(a, a.reverse) === 6.0)
  }

  test("Kendall-Tau distance of one adjacent swap is 1") {
    assert(Metrics.kendallTauDistance(Seq("a", "b", "c"), Seq("b", "a", "c")) === 1.0)
  }

  test("Kendall-Tau handles items missing from one ranking (tied at the end)") {
    // "c" unranked in b: pairs (a,c),(b,c) concordant (both before), (a,b) concordant
    assert(Metrics.kendallTauDistance(Seq("a", "b", "c"), Seq("a", "b")) === 0.0)
  }

  test("Kendall-Tau is symmetric (property)") {
    val gen = Gen.listOfN(5, Gen.choose(0, 9).map(_.toString)).map(_.distinct)
    checkProp(Prop.forAll(gen, gen) { (a, b) =>
      Metrics.kendallTauDistance(a, b) == Metrics.kendallTauDistance(b, a)
    })
  }

  test("Kendall-Tau and nDCG reject a ranking that repeats an item") {
    // a repeated item has no one rank: nDCG would count its relevance twice
    val dup = Seq("a", "b", "a")
    for (metric <- Seq[(Seq[String], Seq[String]) => Double](Metrics.kendallTauDistance, Metrics.ndcg)) {
      intercept[IllegalArgumentException](metric(dup, Seq("a", "b")))
      intercept[IllegalArgumentException](metric(Seq("a", "b"), dup))
    }
  }

  // ------------------------------------------------------------------ nDCG

  test("nDCG of identical rankings is 1") {
    assert(math.abs(Metrics.ndcg(Seq("a", "b", "c"), Seq("a", "b", "c")) - 1.0) < 1e-12)
  }

  test("nDCG of empty truth is 1") {
    assert(Metrics.ndcg(Seq.empty[String], Seq("a")) === 1.0)
  }

  test("nDCG penalises a reversed ranking but stays positive") {
    val v = Metrics.ndcg(Seq("a", "b", "c"), Seq("c", "b", "a"))
    assert(v < 1.0 && v > 0.0)
  }

  test("nDCG of a ranking missing all truth items is 0") {
    assert(Metrics.ndcg(Seq("a", "b"), Seq("x", "y")) === 0.0)
  }

  test("nDCG of hand-computed example") {
    // truth a(rel2), b(rel1); pred = b, a → DCG = 1/log2(2) + 2/log2(3); IDCG = 2 + 1/log2(3)
    val dcg  = 1.0 + 2.0 / (math.log(3) / math.log(2))
    val idcg = 2.0 + 1.0 / (math.log(3) / math.log(2))
    assert(math.abs(Metrics.ndcg(Seq("a", "b"), Seq("b", "a")) - dcg / idcg) < 1e-12)
  }

  test("nDCG is in [0,1] (property)") {
    val gen = Gen.listOfN(6, Gen.choose(0, 9).map(_.toString)).map(_.distinct)
    checkProp(Prop.forAll(gen, gen) { (t, p) =>
      val v = Metrics.ndcg(t, p)
      v >= 0.0 && v <= 1.0 + 1e-12
    })
  }

  test("nDCG improves as the prediction approaches the truth (sanity)") {
    val truth = Seq("a", "b", "c", "d")
    val close = Seq("a", "b", "d", "c")
    val far   = Seq("d", "c", "b", "a")
    assert(Metrics.ndcg(truth, close) > Metrics.ndcg(truth, far))
  }
}
