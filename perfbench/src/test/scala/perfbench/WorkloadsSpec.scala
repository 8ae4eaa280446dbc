package perfbench

import org.apache.spark.sql.DataFrame

class WorkloadsSpec extends BenchSpark {
  private def differ(a: DataFrame, b: DataFrame): Boolean = !a.exceptAll(b).isEmpty

  test("a second seed gives different frames under the same workload definitions") {
    Workloads.all.foreach { w =>
      val one = Workloads.instantiate(spark, w, seed = 1)
      val two = Workloads.instantiate(spark, w, seed = 2)
      one.steps.zip(two.steps).foreach { case ((q, s1), (_, s2)) =>
        s1.inputs.zip(s2.inputs).foreach { case (a, b) => assert(differ(a, b), s"${w.name} ${q.label}") }
      }
    }
  }

  test("the same seed gives the same frames") {
    val w = Workloads.all.head
    val one = Workloads.instantiate(spark, w, seed = 5)
    val again = Workloads.instantiate(spark, w, seed = 5)
    one.steps.zip(again.steps).foreach { case ((_, s1), (_, s2)) =>
      s1.inputs.zip(s2.inputs).foreach { case (a, b) => assert(!differ(a, b)) }
    }
  }

  test("the seed also drives FEDEX-SAMPLING's draw") {
    val q = QuerySpec(11, sampled = true)
    assert(Workloads.config(q, 3).seed == 3 && Workloads.config(q, 3).sampleRows.contains(Workloads.SampleRows))
    assert(Workloads.config(q.copy(sampled = false), 3).sampleRows.isEmpty)
  }
}
